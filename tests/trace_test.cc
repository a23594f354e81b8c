/**
 * @file
 * Tests of trace I/O and the synthetic workload generators.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "trace/trace_io.h"
#include "trace/workloads.h"

namespace fbsim {
namespace {

TEST(TraceIoTest, RoundTrip)
{
    std::vector<TraceRef> refs = {
        {0, false, 0x100}, {1, true, 0x208}, {2, false, 0xdeadbeef},
    };
    std::ostringstream out;
    writeTrace(out, refs);
    std::string err;
    std::vector<TraceRef> back = parseTrace(out.str(), &err);
    EXPECT_TRUE(err.empty());
    EXPECT_EQ(back, refs);
}

TEST(TraceIoTest, CommentsAndBlanksIgnored)
{
    std::string err;
    std::vector<TraceRef> refs =
        parseTrace("# header\n\n0 R 100\n  # indented comment\n"
                   "1 W 2a8  # trailing comment\n",
                   &err);
    EXPECT_TRUE(err.empty());
    ASSERT_EQ(refs.size(), 2u);
    EXPECT_EQ(refs[0], (TraceRef{0, false, 0x100}));
    EXPECT_EQ(refs[1], (TraceRef{1, true, 0x2a8}));
}

TEST(TraceIoTest, MalformedLinesReported)
{
    std::string err;
    EXPECT_TRUE(parseTrace("0 R\n", &err).empty());
    EXPECT_NE(err.find("line 1"), std::string::npos);
    parseTrace("0 X 100\n", &err);
    EXPECT_NE(err.find("R or W"), std::string::npos);
    parseTrace("zed R 100\n", &err);
    EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------- //
// The one grammar, as explicit tables of what parseTrace returns.

TEST(TraceIoTest, AcceptedTextsYieldTheseRefs)
{
    const std::pair<const char *, std::vector<TraceRef>> cases[] = {
        {"", {}},
        {"# only a comment\n", {}},
        {"0 R 100\n1 W 2a8\n", {{0, false, 0x100}, {1, true, 0x2a8}}},
        {"# header\n\n0 R 100\n  # indented comment\n"
         "1 W 2a8  # trailing comment\n",
         {{0, false, 0x100}, {1, true, 0x2a8}}},
        // Lowercase ops, 0x prefixes.
        {"3 r 0x40\n2 w 0XFF8\n", {{3, false, 0x40}, {2, true, 0xff8}}},
        // No trailing newline.
        {"0 R deadbeef", {{0, false, 0xdeadbeef}}},
        // Tabs and CRLF.
        {"0\tR\t100\r\n", {{0, false, 0x100}}},
        {"12 W 0\n", {{12, true, 0}}},
    };
    for (const auto &[text, want] : cases) {
        std::string err = "stale";
        EXPECT_EQ(parseTrace(text, &err), want) << "text: " << text;
        EXPECT_EQ(err, "") << "text: " << text;
    }
}

TEST(TraceIoTest, RejectedTextsYieldTheseErrors)
{
    const std::pair<const char *, const char *> cases[] = {
        // Missing address.
        {"0 R\n", "line 1: expected '<proc> <R|W> <hexaddr>'"},
        {"0 X 100\n", "line 1: op must be R or W"},
        // Bad processor id.
        {"zed R 100\n", "line 1: bad number"},
        // Bad address.
        {"0 R zog\n", "line 1: bad number"},
        // A sign other than '+' is no number, in either field.
        {"0 R -10\n", "line 1: bad number"},
        {"0 R -0\n", "line 1: bad number"},
        {"-1 R 10\n", "line 1: bad number"},
        // Every character of a number must be a digit: junk after the
        // digits (a letter O for a zero, a typo) is no number either.
        {"1 W 0x\n", "line 1: bad number"},
        {"0 R 1O0\n", "line 1: bad number"},
        {"1 W 2g8\n", "line 1: bad number"},
        {"7x R 40\n", "line 1: bad number"},
    };
    for (const auto &[text, want] : cases) {
        std::string err;
        EXPECT_TRUE(parseTrace(text, &err).empty()) << "text: " << text;
        EXPECT_EQ(err, want) << "text: " << text;
    }
}

// A processor id must fit a MasterId: a wider one is rejected by line
// instead of wrapping onto another processor.
TEST(TraceIoTest, ProcessorIdOutOfRangeRejected)
{
    const std::pair<const char *, const char *> cases[] = {
        {"0 R 0\n1 W 20\n4294967296 R 40\n", "line 3"},
        {"0 R 0\n18446744073709551615 W 20\n", "line 2"},
    };
    for (const auto &[text, line] : cases) {
        std::string err;
        EXPECT_TRUE(parseTrace(text, &err).empty()) << text;
        EXPECT_EQ(err, std::string(line) + ": processor id out of range")
            << text;
    }

    // The widest id still parses, unchanged.
    std::string err;
    const std::vector<TraceRef> want = {{4294967295u, true, 0x20}};
    EXPECT_EQ(parseTrace("4294967295 W 20\n", &err), want);
    EXPECT_TRUE(err.empty());
}

TEST(TraceIoTest, BufferedParserRoundTripsGeneratedTraces)
{
    Arch85Params params;
    std::vector<std::unique_ptr<RefStream>> streams =
        makeArch85Streams(params, 3, 11);
    std::vector<TraceRef> refs;
    for (int i = 0; i < 500; ++i) {
        MasterId proc = static_cast<MasterId>(i % 3);
        ProcRef r = streams[proc]->next();
        refs.push_back({proc, r.write, r.addr});
    }
    std::ostringstream out;
    writeTrace(out, refs);
    std::string err;
    EXPECT_EQ(parseTrace(out.str(), &err), refs);
    EXPECT_TRUE(err.empty());
}

TEST(TraceIoTest, SplitByProc)
{
    std::vector<TraceRef> refs = {
        {0, false, 0x0}, {2, true, 0x8}, {0, true, 0x10},
    };
    auto split = splitTraceByProc(refs, 3);
    ASSERT_EQ(split.size(), 3u);
    EXPECT_EQ(split[0].size(), 2u);
    EXPECT_EQ(split[1].size(), 1u);   // padded with an idle read
    EXPECT_EQ(split[2].size(), 1u);
    EXPECT_TRUE(split[2][0].write);
}

TEST(WorkloadTest, Arch85IsDeterministic)
{
    Arch85Params params;
    Arch85Workload a(params, 0, 42), b(params, 0, 42);
    for (int i = 0; i < 100; ++i) {
        ProcRef ra = a.next(), rb = b.next();
        EXPECT_EQ(ra.addr, rb.addr);
        EXPECT_EQ(ra.write, rb.write);
    }
}

TEST(WorkloadTest, Arch85RespectsRegions)
{
    Arch85Params params;
    params.sharedLines = 4;
    params.privateLines = 8;
    Arch85Workload w(params, 2, 7);
    Addr shared_end = params.sharedLines * params.lineBytes;
    Addr priv_base = w.privateBase();
    Addr priv_end = priv_base + params.privateLines * params.lineBytes;
    for (int i = 0; i < 2000; ++i) {
        ProcRef r = w.next();
        bool in_shared = r.addr < shared_end;
        bool in_private = r.addr >= priv_base && r.addr < priv_end;
        EXPECT_TRUE(in_shared || in_private) << r.addr;
        EXPECT_EQ(r.addr % kWordBytes, 0u);
    }
}

TEST(WorkloadTest, Arch85SharedFractionTracksParameter)
{
    Arch85Params params;
    params.pShared = 0.2;
    Arch85Workload w(params, 0, 11);
    Addr shared_end = params.sharedLines * params.lineBytes;
    int shared = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        if (w.next().addr < shared_end)
            ++shared;
    }
    EXPECT_NEAR(static_cast<double>(shared) / n, 0.2, 0.02);
}

TEST(WorkloadTest, DifferentProcessorsUseDisjointPrivateRegions)
{
    Arch85Params params;
    Arch85Workload a(params, 0, 1), b(params, 1, 1);
    EXPECT_NE(a.privateBase(), b.privateBase());
}

TEST(WorkloadTest, PingPongAlternatesReadWrite)
{
    PingPongWorkload w(32, 2, 0, 5);
    for (int i = 0; i < 10; ++i) {
        ProcRef r1 = w.next();
        ProcRef r2 = w.next();
        EXPECT_FALSE(r1.write);
        EXPECT_TRUE(r2.write);
        // The read-modify-write pair touches the same line.
        EXPECT_EQ(r1.addr / 32, r2.addr / 32);
    }
}

TEST(WorkloadTest, ProducerWritesConsumerReads)
{
    ProducerConsumerWorkload prod(32, 2, true, 1);
    ProducerConsumerWorkload cons(32, 2, false, 1);
    for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(prod.next().write);
        EXPECT_FALSE(cons.next().write);
    }
}

TEST(WorkloadTest, ProducerSweepsTheBuffer)
{
    ProducerConsumerWorkload prod(32, 2, true, 1);
    std::vector<Addr> seen;
    for (int i = 0; i < 8; ++i)
        seen.push_back(prod.next().addr);
    // 2 lines x 4 words: the sweep covers each word once, in order.
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(seen[i], static_cast<Addr>(i * 8));
    EXPECT_EQ(prod.next().addr, 0u);   // wraps
}

TEST(WorkloadTest, ReadMostlyWriteFraction)
{
    ReadMostlyWorkload w(32, 8, 0.05, 3);
    int writes = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        writes += w.next().write ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(writes) / n, 0.05, 0.01);
}

TEST(WorkloadTest, PrivateWorkloadsDisjointAcrossProcs)
{
    PrivateWorkload a(32, 16, 0.3, 0, 1);
    PrivateWorkload b(32, 16, 0.3, 1, 1);
    std::set<Addr> lines_a, lines_b;
    for (int i = 0; i < 500; ++i) {
        lines_a.insert(a.next().addr / 32);
        lines_b.insert(b.next().addr / 32);
    }
    for (Addr la : lines_a)
        EXPECT_EQ(lines_b.count(la), 0u);
}

TEST(WorkloadTest, SpanStreamCycles)
{
    const std::vector<ProcRef> refs = {{false, 8}, {true, 16}};
    SpanStream s(refs);
    EXPECT_EQ(s.next().addr, 8u);
    EXPECT_EQ(s.next().addr, 16u);
    EXPECT_EQ(s.next().addr, 8u);
}

} // namespace
} // namespace fbsim
