/**
 * @file
 * Seeded mutation loops over fbsim's two input parsers: trace text
 * (parseTrace) and the campaign journal (decodeJournalRecord and
 * loadCampaignJournal).  Each loop asserts a diagnostic or a result
 * that reads back unchanged, never a crash.  The seeds are fixed, so
 * every run tries the same mutants; the sanitizer CI job runs them
 * with bounds-checked containers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign_journal.h"
#include "campaign/campaign_runner.h"
#include "common/random.h"
#include "test_util.h"
#include "text/report.h"
#include "trace/trace_io.h"

namespace fbsim {
namespace {

/** Bytes the inserting mutators favour: the formats' own alphabet. */
constexpr char kAlphabet[] = "0123456789abcdefxRWrw+- \t\r\n#";

/**
 * One random edit of `s`: a bit flip, an inserted or deleted byte, a
 * truncation, a long digit run, or a '+'/'-' sign at a token start.
 */
void
mutate(std::string &s, Rng &rng)
{
    std::size_t at = rng.below(s.size() + 1);
    switch (rng.below(6)) {
      case 0:
        if (at < s.size())
            s[at] = static_cast<char>(s[at] ^ (1u << rng.below(8)));
        break;
      case 1:
        s.insert(at, 1,
                 rng.chance(0.5)
                     ? kAlphabet[rng.below(sizeof kAlphabet - 1)]
                     : static_cast<char>(rng.below(256)));
        break;
      case 2:
        if (at < s.size())
            s.erase(at, 1);
        break;
      case 3:
        s.resize(at);
        break;
      case 4: {
        std::string run(8 + rng.below(40), '0');
        for (char &c : run)
            c = static_cast<char>('0' + rng.below(10));
        s.insert(at, run);
        break;
      }
      default:
        while (at > 0 && at < s.size() && s[at - 1] != ' ' &&
               s[at - 1] != '\t' && s[at - 1] != '\n')
            ++at;
        s.insert(at, 1, rng.chance(0.5) ? '+' : '-');
        break;
    }
}

/** One to three random edits. */
std::string
mutant(const std::string &s, Rng &rng)
{
    std::string m = s;
    for (std::uint64_t k = 1 + rng.below(3); k > 0; --k)
        mutate(m, rng);
    return m;
}

// ---------------------------------------------------------------- //
// Trace text.

/** Lines parseTrace walks: one per '\n', plus an unterminated tail. */
std::size_t
lineCount(const std::string &text)
{
    return static_cast<std::size_t>(
               std::count(text.begin(), text.end(), '\n')) +
           (!text.empty() && text.back() != '\n' ? 1 : 0);
}

/**
 * parseTrace on `text` either names one of its lines with one of the
 * grammar's diagnostics - a line that fails alone while every line
 * before it parses - or returns references that writeTrace and
 * parseTrace reproduce.
 */
void
checkTrace(const std::string &text)
{
    std::string err = "stale";
    const std::vector<TraceRef> refs = parseTrace(text, &err);
    if (err.empty()) {
        EXPECT_LE(refs.size(), lineCount(text));
        std::ostringstream out;
        writeTrace(out, refs);
        std::string again = "stale";
        EXPECT_EQ(parseTrace(out.str(), &again), refs);
        EXPECT_EQ(again, "");
        return;
    }
    EXPECT_TRUE(refs.empty());
    unsigned long n = 0;
    int what = 0;
    ASSERT_EQ(std::sscanf(err.c_str(), "line %lu: %n", &n, &what), 1)
        << err;
    ASSERT_GE(n, 1u) << err;
    ASSERT_LE(n, lineCount(text)) << err;
    const std::string why = err.substr(static_cast<std::size_t>(what));
    EXPECT_TRUE(why == "expected '<proc> <R|W> <hexaddr>'" ||
                why == "bad number" || why == "op must be R or W" ||
                why == "processor id out of range")
        << err;

    std::size_t start = 0;
    for (unsigned long i = 1; i < n; ++i)
        start = text.find('\n', start) + 1;
    std::string before = "stale";
    parseTrace(text.substr(0, start), &before);
    EXPECT_EQ(before, "") << err;
    const std::size_t end = text.find('\n', start);
    std::string alone;
    parseTrace(text.substr(start, end == std::string::npos
                                      ? std::string::npos
                                      : end - start),
               &alone);
    EXPECT_EQ(alone, "line 1: " + why);
}

TEST(TraceFuzzTest, EveryMutantIsADiagnosticOrReadsBack)
{
    std::vector<TraceRef> refs;
    Rng gen(0x7ace);
    for (int i = 0; i < 24; ++i) {
        refs.push_back({static_cast<MasterId>(gen.below(4)),
                        gen.chance(0.3), gen.below(1 << 16) * kWordBytes});
    }
    std::ostringstream written;
    writeTrace(written, refs);
    const std::string bases[] = {
        written.str(),
        "# header\n\n0 R 100\n  # indented\n1 W 2a8  # trailing\n"
        "3\tr\t0x40\r\n2 w 0XFF8\n4294967295 W 20\n7 R deadbeef",
    };
    for (const std::string &base : bases) {
        checkTrace(base);
        Rng rng(0xf022);
        for (int i = 0; i < 6000; ++i) {
            const std::string text = mutant(base, rng);
            checkTrace(text);
            if (HasFailure()) {
                ADD_FAILURE() << "mutant " << i << ": " << text;
                return;
            }
        }
    }
}

// ---------------------------------------------------------------- //
// Journal records.

/** A faulted flat campaign: two lineups (one with a Random chooser and
 *  a non-caching master), fault-free and faulted jobs. */
CampaignSpec
flatSpec()
{
    CampaignSpec spec;
    spec.campaignSeed = 0xf1a7;
    spec.refsPerProc = 150;
    spec.base = test::testConfig();
    spec.base.maxBusRetries = 4;
    spec.base.watchdogRounds = 2;
    spec.base.quarantineOnIntegrity = true;
    ProtocolMix plain = homogeneousMix("moesi", test::smallCache(), 2);
    ProtocolMix mixed;
    mixed.name = "random+io";
    MixSlot random;
    random.cache = test::smallCache(ProtocolKind::Berkeley);
    random.cache.chooser = ChooserKind::Random;
    MixSlot io;
    io.nonCaching = true;
    mixed.slots = {random, io};
    spec.mixes = {plain, mixed};
    Arch85Params params;
    params.pShared = 0.4;
    params.sharedLines = 6;
    spec.workloads.push_back(arch85SeededWorkload("arch85", params));
    FaultConfig fc;
    fc.seed = 0xf1a7;
    fc.spuriousAbort.probability = 0.05;
    fc.memoryDrop.probability = 1.0;
    fc.memoryDrop.windowStart = 40;
    fc.memoryDrop.windowEnd = 60;
    fc.dataFlip.probability = 0.03;
    spec.faults = {FaultPoint{}, FaultPoint{"faulted", fc}};
    return spec;
}

/** A faulted 2-cluster campaign of one job. */
CampaignSpec
hierSpec()
{
    CampaignSpec spec;
    spec.campaignSeed = 0x41e5;
    spec.refsPerProc = 150;
    spec.clusters = 2;
    spec.mixes.push_back(
        homogeneousMix("moesi", test::smallCache(), 4));
    spec.workloads.push_back(
        arch85SeededWorkload("arch85", Arch85Params{}));
    FaultConfig fc;
    fc.seed = 0x41e5;
    fc.bridgeDrop.probability = 0.05;
    fc.filterStale.probability = 0.1;
    fc.dataFlip.probability = 0.02;
    spec.faults = {FaultPoint{"bridge", fc}};
    spec.hier.scrubEveryAccesses = 64;
    return spec;
}

/** Every record of both campaigns. */
const std::vector<std::string> &
records()
{
    static const std::vector<std::string> lines = [] {
        std::vector<std::string> out;
        for (const CampaignSpec &spec : {flatSpec(), hierSpec()}) {
            for (const CampaignResult &r :
                 CampaignRunner(1).run(spec).results)
                out.push_back(encodeJournalRecord(r));
        }
        return out;
    }();
    return lines;
}

/** `body` closed with its own checksum token, as the encoder does. */
std::string
reseal(const std::string &body)
{
    return body + ' ' +
           strprintf("%016llx", static_cast<unsigned long long>(
                                    test::fnv1a(body)));
}

// A record changed at rest never decodes: the checksum rejects it.
TEST(JournalFuzzTest, RawMutantsNeverDecode)
{
    Rng rng(0xb0b);
    for (const std::string &line : records()) {
        ASSERT_TRUE(decodeJournalRecord(line).has_value());
        for (int i = 0; i < 400; ++i) {
            const std::string bad = mutant(line, rng);
            if (bad == line)
                continue;
            EXPECT_FALSE(decodeJournalRecord(bad).has_value()) << bad;
            if (HasFailure())
                return;
        }
    }
}

/** Replace one token of `body` with a range-check boundary value. */
void
swapToken(std::string &body, Rng &rng)
{
    static const char *const kValues[] = {
        "0", "1", "2", "3", "64", "65", "66", "4096", "4097",
        "1048576", "1048577", "18446744073709551615",
        "18446744073709551616", "-", "00", "end", "job",
    };
    std::vector<std::size_t> starts;
    for (std::size_t i = 0; i < body.size(); ++i) {
        if (body[i] != ' ' && (i == 0 || body[i - 1] == ' '))
            starts.push_back(i);
    }
    if (starts.empty())
        return;
    const std::size_t at = starts[rng.below(starts.size())];
    const std::size_t end = std::min(body.find(' ', at), body.size());
    body.replace(at, end - at,
                 kValues[rng.below(std::size(kValues))]);
}

// A mutated body under a fresh checksum exercises the field walk:
// it is rejected, or it reaches a fixed point (decode, encode, decode,
// encode gives the same line).
TEST(JournalFuzzTest, ResealedMutantsAreRejectedOrReachAFixedPoint)
{
    Rng rng(0x5ea1);
    std::size_t accepted = 0, rejected = 0;
    for (const std::string &line : records()) {
        const std::string body = line.substr(0, line.rfind(' '));
        for (int i = 0; i < 160; ++i) {
            std::string edited = body;
            if (rng.chance(0.5))
                swapToken(edited, rng);
            else
                edited = mutant(body, rng);
            const std::string sealed = reseal(edited);
            std::optional<CampaignResult> first =
                decodeJournalRecord(sealed);
            if (!first) {
                ++rejected;
                continue;
            }
            ++accepted;
            const std::string once = encodeJournalRecord(*first);
            std::optional<CampaignResult> second =
                decodeJournalRecord(once);
            ASSERT_TRUE(second.has_value()) << sealed;
            EXPECT_EQ(encodeJournalRecord(*second), once) << sealed;
            if (HasFailure())
                return;
        }
    }
    // Both outcomes occur: the reader's range checks rejected some
    // texts and its accepting paths decoded others.
    EXPECT_GT(accepted, 50u) << rejected << " rejected";
    EXPECT_GT(rejected, 50u) << accepted << " accepted";
}

// ---------------------------------------------------------------- //
// Journal files: truncated, reordered, duplicated and foreign
// records.

class JournalFileFuzzTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = testing::TempDir() + "fbsim_input_fuzz.journal";
        std::remove(path_.c_str());
        spec_ = flatSpec();
        fingerprint_ = campaignFingerprint(spec_);
        SupervisorOptions sup;
        sup.journalPath = path_;
        baseline_ = renderCampaignTable(CampaignRunner(2, sup).run(spec_));
        std::ifstream in(path_);
        std::getline(in, header_);
        std::string line;
        while (std::getline(in, line))
            lines_.push_back(line);
        ASSERT_EQ(lines_.size(), spec_.numJobs());
    }

    void TearDown() override { std::remove(path_.c_str()); }

    /** The header plus `lines`, each newline-terminated. */
    std::string
    journal(const std::vector<std::string> &lines) const
    {
        std::string text = header_ + '\n';
        for (const std::string &l : lines)
            text += l + '\n';
        return text;
    }

    /** Complete lines after the header that fail to decode. */
    static std::size_t
    failingCompleteLines(const std::string &text)
    {
        std::size_t failing = 0;
        std::size_t at = text.find('\n') + 1;
        for (std::size_t nl; (nl = text.find('\n', at)) != std::string::npos;
             at = nl + 1) {
            if (!decodeJournalRecord(text.substr(at, nl - at)))
                ++failing;
        }
        return failing;
    }

    /** Load `text` as the journal; its dropped count must be exactly
     *  its failing complete lines.  Returns the loaded records. */
    std::size_t
    load(const std::string &text)
    {
        {
            std::ofstream out(path_, std::ios::trunc | std::ios::binary);
            out << text;
        }
        JournalContents j = loadCampaignJournal(path_, fingerprint_);
        EXPECT_EQ(j.dropped, failingCompleteLines(text));
        return j.results.size();
    }

    /** Load `text`, then resume from it: the uninterrupted table. */
    void
    resume(const std::string &text, const char *what)
    {
        load(text);
        SupervisorOptions sup;
        sup.journalPath = path_;
        sup.resume = true;
        testing::internal::CaptureStderr();
        const std::string table =
            renderCampaignTable(CampaignRunner(1, sup).run(spec_));
        testing::internal::GetCapturedStderr();
        EXPECT_EQ(table, baseline_) << what;
    }

    std::string path_;
    CampaignSpec spec_;
    std::uint64_t fingerprint_ = 0;
    std::string baseline_;
    std::string header_;
    std::vector<std::string> lines_;
};

TEST_F(JournalFileFuzzTest, TruncationKeepsEveryCompleteRecord)
{
    const std::string full = journal(lines_);
    const std::size_t body = header_.size() + 1;
    // Cuts around every record boundary and at random offsets: each
    // loses only the torn tail, which is never counted as dropped.
    std::vector<std::size_t> cuts;
    for (std::size_t at = body; at < full.size();
         at = full.find('\n', at) + 1) {
        for (std::size_t d = 0; d < 3; ++d)
            cuts.insert(cuts.end(), {at + d, full.find('\n', at) - d});
    }
    Rng rng(0xc07);
    for (int i = 0; i < 64; ++i)
        cuts.push_back(body + rng.below(full.size() - body + 1));
    for (std::size_t cut : cuts) {
        const std::size_t kept = load(full.substr(0, cut));
        std::size_t want = 0;
        std::size_t at = body;
        for (const std::string &l : lines_) {
            if (at + l.size() <= cut)
                ++want;
            at += l.size() + 1;
        }
        EXPECT_EQ(kept, want) << "cut at " << cut;
        if (HasFailure())
            return;
    }
    // At each record boundary and in the middle of each record, a
    // resume renders the uninterrupted table.
    std::size_t at = body;
    for (const std::string &l : lines_) {
        resume(full.substr(0, at), "boundary");
        resume(full.substr(0, at + l.size() / 2), "mid-record");
        at += l.size() + 1;
    }
}

TEST_F(JournalFileFuzzTest, ReorderedDuplicatedAndForeignRecords)
{
    std::vector<std::string> reversed(lines_.rbegin(), lines_.rend());
    resume(journal(reversed), "reversed");

    std::vector<std::string> twice = lines_;
    twice.insert(twice.end(), lines_.begin(), lines_.end());
    resume(journal(twice), "every record twice");

    // A well-formed record of a job past the campaign loads but merges
    // nowhere.
    CampaignResult past = *decodeJournalRecord(lines_[0]);
    past.job.index = spec_.numJobs() + 3;
    std::vector<std::string> foreign = lines_;
    foreign.push_back(encodeJournalRecord(past));
    EXPECT_EQ(load(journal(foreign)), lines_.size() + 1);
    resume(journal(foreign), "job index past the campaign");

    // Nor does one whose axes are not its job's: a mix index past the
    // campaign, or another job's record under this job's index.
    CampaignResult stray = *decodeJournalRecord(lines_[1]);
    stray.job.mixIdx = spec_.numMixes() + 4;
    std::vector<std::string> strayed = lines_;
    strayed[1] = encodeJournalRecord(stray);
    resume(journal(strayed), "mix index past the campaign");
    CampaignResult moved = *decodeJournalRecord(lines_[2]);
    moved.job.index = 1;
    strayed[1] = encodeJournalRecord(moved);
    resume(journal(strayed), "another job's record");

    // Random shuffles, duplicates, drops and in-place damage.
    Rng rng(0xd00d);
    for (int round = 0; round < 12; ++round) {
        std::vector<std::string> mixed;
        for (const std::string &l : lines_) {
            if (rng.chance(0.2))
                continue;
            mixed.push_back(rng.chance(0.3) ? mutant(l, rng) : l);
            if (rng.chance(0.2))
                mixed.push_back(l);
        }
        std::shuffle(mixed.begin(), mixed.end(), rng);
        std::string text = journal(mixed);
        if (!mixed.empty() && rng.chance(0.5))
            text.resize(text.size() - 1 - rng.below(mixed.back().size()));
        resume(text, "mixed damage");
        if (HasFailure())
            return;
    }
}

} // namespace
} // namespace fbsim
