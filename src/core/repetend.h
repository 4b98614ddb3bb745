/**
 * @file
 * Repetend construction (Sec. IV-B): candidate enumeration under the
 * paper's pruning properties and derivation of the warmup/cooldown block
 * sets (Eqs. 5/6).
 *
 * A repetend assigns each block spec i a micro-batch index r_i in
 * [0, NR). Property 4.1 (micro-batch symmetry) lets us demand monotone
 * micro-batch indices per spec, which induces Property 4.2: along any
 * dependency edge i -> j (j consumes i's output), r_i >= r_j. We add the
 * canonical form min r = 0 (a uniform shift only shrinks the warmup) and
 * max r = NR-1 (otherwise the candidate already occurs at a smaller NR).
 */

#ifndef TESSEL_CORE_REPETEND_H
#define TESSEL_CORE_REPETEND_H

#include <functional>
#include <vector>

#include "ir/placement.h"
#include "ir/problem.h"

namespace tessel {

struct CommExpansion;

/** A candidate repetend: one micro-batch index per block spec. */
struct RepetendAssignment
{
    /** r_i for each spec i. */
    std::vector<int> r;
    /** Number of micro-batches NR spanned (max r + 1). */
    int numMicrobatches = 0;

    bool
    operator==(const RepetendAssignment &other) const
    {
        return numMicrobatches == other.numMicrobatches && r == other.r;
    }

    bool
    operator!=(const RepetendAssignment &other) const
    {
        return !(*this == other);
    }
};

/**
 * Enumerate all canonical repetend assignments for @p placement at a
 * given NR. Properties 4.1/4.2 plus the canonical min/max constraints
 * prune the (NR)^K raw space.
 *
 * @param placement the operator placement strategy.
 * @param nr number of micro-batches in the repetend (>= 1).
 * @param yield invoked for each candidate; return false to stop early.
 * @return number of candidates produced.
 */
int enumerateRepetends(
    const Placement &placement, int nr,
    const std::function<bool(const RepetendAssignment &)> &yield);

/** Convenience: materialize all candidates at @p nr. */
std::vector<RepetendAssignment> allRepetends(const Placement &placement,
                                             int nr);

/**
 * Per-device memory already held when a steady-state repetend instance
 * begins: the warmup has executed micro-batches [0, r_i) of every spec i
 * (Sec. IV-B, "memory usage at the entry of the repetend").
 *
 * @return per-device entry usage, excluding Problem::initialMem.
 */
std::vector<Mem> repetendEntryMem(const Placement &placement,
                                  const RepetendAssignment &assign);

/**
 * Warmup block set (Eq. 5): all instances (spec i, mb n) with n < r_i.
 */
std::vector<BlockRef> warmupBlocks(const Placement &placement,
                                   const RepetendAssignment &assign);

/**
 * Cooldown block set (Eq. 6): all instances (spec i, mb n) with
 * r_i < n < NR.
 */
std::vector<BlockRef> cooldownBlocks(const Placement &placement,
                                     const RepetendAssignment &assign);

/**
 * Maximum number of in-flight micro-batches under the memory budget
 * (Algorithm 1's CalMaxInflight): limits the NR sweep.
 *
 * @param placement the strategy.
 * @param mem_limit per-device capacity.
 * @param initial_mem per-device pre-allocated memory (may be empty).
 * @param hard_cap upper clamp regardless of memory.
 */
int calMaxInflight(const Placement &placement, Mem mem_limit,
                   const std::vector<Mem> &initial_mem, int hard_cap);

/**
 * Extend a repetend assignment over the original placement to the
 * comm-expanded one (placement/comm.h): real blocks keep their index,
 * comm blocks adopt their consumer's index (the transfer lands in the
 * same window position as its use). Preserves Property 4.2 along every
 * expanded edge.
 */
RepetendAssignment extendAssignment(const CommExpansion &expansion,
                                    const RepetendAssignment &orig);

} // namespace tessel

#endif // TESSEL_CORE_REPETEND_H
