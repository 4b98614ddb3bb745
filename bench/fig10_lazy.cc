/**
 * @file
 * Fig. 10 reproduction: (a) search-time breakdown across the warmup /
 * repetend / cooldown phases, and (b) the effect of the lazy-search
 * optimization (satisfiability-only completion checks inside the
 * candidate loop, one time-optimal completion at the end, Sec. V).
 *
 * The shares in (a) are of summed solve seconds (SearchBreakdown), not
 * of the search's wall time: the sweep's candidate solves may run on
 * several threads, and a completion solves its cooldown beside its
 * warmup, so those seconds overlap.
 *
 * The candidates column comes from a search at the default thread count,
 * whose sweep is pooled on a multicore host. A pooled sweep hands each
 * candidate to the pool as it is enumerated and stops once a candidate
 * reaches the lower bound, which depends on which solves finish first,
 * so on such a host that column varies from run to run. One sweep
 * thread (a one-core host) makes it a pure function of the placement.
 */

#include "bench/common.h"

using namespace tessel;

int
main()
{
    Table breakdown(
        "Fig. 10(a): search time distribution per phase (lazy search)");
    breakdown.setHeader({"placement", "total (s)", "warmup %",
                         "repetend %", "cooldown %", "candidates"});

    Table lazy("Fig. 10(b): relative search cost without lazy search");
    lazy.setHeader({"placement", "lazy (s)", "eager (s)", "eager/lazy"});

    struct Entry
    {
        const char *label;
        Placement placement;
    };
    const Entry entries[] = {
        {"GPT (M-Shape)", makeMShape(4)},
        {"mT5 (NN-Shape)", makeNnShape(4)},
        {"Flava (K-Shape)", makeKShape(4)},
    };

    for (const Entry &entry : entries) {
        Stopwatch lazy_watch;
        const auto result =
            tesselSearch(entry.placement, bench::searchOptions());
        const double lazy_sec = lazy_watch.seconds();
        if (!result.found) {
            breakdown.addRow({entry.label, "-", "-", "-", "-", "-"});
            continue;
        }
        const auto &b = result.breakdown;
        const double total = std::max(
            b.repetendSeconds + b.warmupSeconds + b.cooldownSeconds,
            1e-9);
        breakdown.addRow(
            {entry.label, fmtDouble(lazy_sec, 3),
             fmtPercent(b.warmupSeconds / total, 1),
             fmtPercent(b.repetendSeconds / total, 1),
             fmtPercent(b.cooldownSeconds / total, 1),
             std::to_string(b.candidatesEnumerated)});

        TesselOptions eager_opts = bench::searchOptions();
        eager_opts.lazy = false;
        Stopwatch eager_watch;
        tesselSearch(entry.placement, eager_opts);
        const double eager_sec = eager_watch.seconds();
        lazy.addRow({entry.label, fmtDouble(lazy_sec, 3),
                     fmtDouble(eager_sec, 3),
                     fmtDouble(eager_sec / std::max(lazy_sec, 1e-9), 2) +
                         "x"});
    }
    breakdown.print(std::cout);
    lazy.print(std::cout);
    std::cout << "Paper reference: cooldown > warmup search time; lazy "
                 "search keeps completion cost comparable to the "
                 "repetend phase (~147 s average total with Z3).\n";
    return 0;
}
