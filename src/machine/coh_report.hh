/**
 * @file
 * Coherence observability reports: aggregate the always-on directory
 * census, the network telemetry and (when enabled) the transaction
 * trace of an AlewifeMachine into the `april run --coh` text/JSON
 * reports — hottest lines, widest sharer sets, slowest transactions,
 * per-class network latency and the invalidation/ack balance.
 */

#ifndef APRIL_MACHINE_COH_REPORT_HH
#define APRIL_MACHINE_COH_REPORT_HH

#include <ostream>
#include <string>

#include "machine/alewife_machine.hh"

namespace april
{

/** Report shaping knobs (the `april run --top` flag). */
struct CohReportOptions
{
    size_t topLines = 10;       ///< churn top-N (directory census)
    size_t topSharers = 10;     ///< widest-sharer-set top-N
    size_t topTxns = 10;        ///< slowest-transaction top-N
    size_t topPairs = 10;       ///< busiest node-pair top-N
};

/** Human-readable report (what `april run --coh` prints). */
void writeCohReportText(std::ostream &os, AlewifeMachine &machine,
                        const CohReportOptions &opts = {});

/**
 * Machine-readable report (schemaVersion 1); validated against
 * tools/april_coh_schema.json in CI. Deterministic for a given run:
 * differential tests compare serializations byte for byte.
 */
void writeCohReportJson(std::ostream &os, AlewifeMachine &machine,
                        const CohReportOptions &opts = {});

/**
 * Check span causality over a transaction log: every complete
 * transaction's fill follows its issue, its invalidations and
 * acknowledgments balance, and no transaction acknowledges more
 * invalidations than were sent. @return "" when the log is clean (or
 * truncated — a capped log cannot be validated), else a one-line
 * description of the first violation.
 */
std::string checkCohInvariants(const coh::TxnTracer &tracer);

} // namespace april

#endif // APRIL_MACHINE_COH_REPORT_HH
