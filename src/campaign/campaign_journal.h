/**
 * @file
 * Crash-consistent campaign checkpointing.
 *
 * A journal is an append-only text file: a header line binding it to
 * one campaign (a fingerprint of the spec's shape and seeds), then one
 * line per completed job, fsync'd as written.  Every statistic fbsim
 * reports is integral at the source (doubles are derived at render
 * time), so a record round-trips bit-exactly: a campaign resumed from
 * a journal merges into a report byte-identical to the uninterrupted
 * run.
 *
 * Crash model (kill -9, power loss): the only incomplete state a
 * record-per-line + fsync discipline can leave behind is a torn final
 * line.  The loader therefore accepts any prefix of well-formed
 * records and silently drops a malformed tail; the dropped job is
 * simply re-run on resume, and the appender cuts the torn line before
 * writing the next record.  A torn header (an unterminated prefix of
 * this campaign's header line) is a journal with nothing in it yet.
 * Each record ends with an FNV-1a checksum of its text, so a record
 * corrupted at rest (one flipped digit) is dropped the same way
 * instead of merging as a different result, and counted: a resumed
 * campaign warns how many records it dropped.  A
 * fingerprint or version mismatch, by contrast, is a hard error -
 * resuming campaign A from campaign B's journal would silently
 * fabricate results.
 *
 * Record grammar (one line, space-separated tokens, strings lowercase
 * hex so embedded spaces and newlines cannot break framing):
 *
 *   fbsim-campaign-journal v5 fp=<hex16> jobs=<n>
 *   job <index> ... <all CampaignResult fields in fixed order> ... end
 *       <hex16 FNV-1a of the record text before it>
 *
 * One field walk in campaign_journal.cc names every field once, in
 * token order; the encoder runs it with a token writer and the decoder
 * with a range-checking token reader, so the two cannot drift apart.
 */

#ifndef FBSIM_CAMPAIGN_CAMPAIGN_JOURNAL_H_
#define FBSIM_CAMPAIGN_CAMPAIGN_JOURNAL_H_

#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign_spec.h"

namespace fbsim {

/**
 * Identity of a campaign for resume purposes: a 64-bit FNV-1a hash
 * over the spec's seed, reference count, job count and axis names.
 * Two specs with the same fingerprint have the same job universe, so
 * their journals are interchangeable; anything else is rejected.
 * (Workload *content* is a function object and cannot be hashed; the
 * names stand in for it, as they do in the rendered report.)
 */
std::uint64_t campaignFingerprint(const CampaignSpec &spec);

/** Serialize one result as a journal record line (no newline). */
std::string encodeJournalRecord(const CampaignResult &result);

/** Parse a record line; nullopt when malformed (torn tail) or when its
 *  checksum does not match. */
std::optional<CampaignResult> decodeJournalRecord(const std::string &line);

/** Append-side of a journal: open, write header if new, append. */
class CampaignJournal
{
  public:
    /**
     * Open `path` for appending.  An empty or absent file, or one
     * holding only a torn header, gets the header; an existing one
     * must carry this version and a matching fingerprint, and loses
     * its torn final line, if it has one.
     * I/O, version or fingerprint failure is fatal
     * (fbsim_fatal) - checkpoint corruption must never be silent.
     */
    CampaignJournal(const std::string &path, std::uint64_t fingerprint,
                    std::size_t num_jobs);
    ~CampaignJournal();

    CampaignJournal(const CampaignJournal &) = delete;
    CampaignJournal &operator=(const CampaignJournal &) = delete;

    /** Append one completed job, fsync'd before returning. */
    void append(const CampaignResult &result);

  private:
    void writeLine(const std::string &line);

    int fd_ = -1;
    std::string path_;
};

/** What a journal holds: its completed records and a count of the
 *  ones it had to drop. */
struct JournalContents
{
    /** Every well-formed record, in file order. */
    std::vector<CampaignResult> results;
    /** Complete (newline-terminated) lines that failed to decode or to
     *  match their checksum.  A final unterminated line, the torn tail
     *  of a killed run, is expected and not counted. */
    std::size_t dropped = 0;
};

/**
 * Load the completed records of `path`.  Returns the results of every
 * well-formed record (later duplicates of a job index win, so a job
 * journaled twice across restarts stays harmless); a torn, garbage or
 * corrupted record is skipped, and counted unless it is the torn tail.
 * Fatal on a version or fingerprint mismatch; an absent file or a torn
 * header yields no records (resume of a never-started campaign).
 */
JournalContents loadCampaignJournal(const std::string &path,
                                    std::uint64_t fingerprint);

} // namespace fbsim

#endif // FBSIM_CAMPAIGN_CAMPAIGN_JOURNAL_H_
