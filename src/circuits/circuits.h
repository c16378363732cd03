// Benchmark circuits and property suites.
//
// Synthetic equivalents of the paper's three evaluation circuits
// (Section 5, Table 2) plus the illustrative models of Figures 1-3 and
// the modulo-k counter of the introduction. The proprietary Intel designs
// are unavailable; these models recreate the *mechanisms* behind each
// reported coverage hole:
//
//  * Priority buffer (Circuit 1): a `lo_cred` fast-acknowledge flag is set
//    exactly when low-priority entries arrive into an empty buffer — the
//    case the paper's initial property suite missed. States with
//    `lo_cred=1` are reachable only through that event, so they are
//    uncovered until the missing property is added; with `with_bug` the
//    added property fails, reproducing the escaped-bug discovery.
//  * Circular queue (Circuit 2): the wrap bit's toggle is deferred while
//    `stall` is asserted (a `pend` flag records the pending toggle).
//    States with `pend=1` arise only from a stalled pointer wrap, so
//    event+hold property suites that only condition on `!stall` leave
//    them uncovered — "the value of wrap was not checked if stall was
//    asserted when the write pointer wraps around".
//  * Decode pipeline (Circuit 3): a 1-bit datapath with valid bits and an
//    end-of-pipe state machine that holds the output for `hold` cycles.
//    Eventuality properties cover only the *first* state where the output
//    appears (`firstreached`), leaving the hold states uncovered — "the
//    pipeline output retains its value for 3 cycles".
#pragma once

#include <cstdint>
#include <vector>

#include "ctl/ctl.h"
#include "model/model.h"

namespace covest::circuits {

// --------------------------------------------------------------------------
// Introduction example: modulo-k counter with stall and reset
// --------------------------------------------------------------------------

struct CounterSpec {
  unsigned width = 3;       ///< Bits in `count`.
  std::uint64_t limit = 5;  ///< Counts 0 .. limit-1, then wraps to 0.
};

model::Model make_mod_counter(const CounterSpec& spec = {});

/// The paper's Section-1 property family: one formula per counter value C,
/// AG((!stall & !reset & count==C) -> AX(count==C+1)), C < limit-1.
std::vector<ctl::Formula> counter_increment_properties(const CounterSpec&);

/// Increment + wrap + stall-hold + reset properties: full coverage suite.
std::vector<ctl::Formula> counter_full_suite(const CounterSpec&);

// --------------------------------------------------------------------------
// Circuit 1: priority buffer
// --------------------------------------------------------------------------

struct PriorityBufferSpec {
  std::uint64_t capacity = 8;  ///< Entries per priority class (fits 4 bits).
  bool with_bug = true;        ///< Seeded bug: lo entries dropped when the
                               ///< buffer is empty and no hi entry arrives.
};

model::Model make_priority_buffer(const PriorityBufferSpec& spec = {});

/// The 5 hi-priority properties (Table 2 row "hi-pri"): complete case
/// analysis of the hi counter. Achieves 100% coverage for `hi`.
std::vector<ctl::Formula> buffer_hi_properties(const PriorityBufferSpec&);

/// The 5 initial lo-priority properties (Table 2 row "lo-pri"): the case
/// "buffer empty and low-priority entries incoming" is missing, leaving
/// the `lo_cred` states uncovered.
std::vector<ctl::Formula> buffer_lo_properties_initial(
    const PriorityBufferSpec&);

/// The missing-case property whose verification *fails* on the buggy
/// design (the paper's escaped bug) and closes the hole on the fixed one.
ctl::Formula buffer_lo_missing_case(const PriorityBufferSpec&);

// --------------------------------------------------------------------------
// Circuit 2: circular queue
// --------------------------------------------------------------------------

struct CircularQueueSpec {
  unsigned ptr_bits = 3;  ///< Queue depth = 2^ptr_bits.
};

model::Model make_circular_queue(const CircularQueueSpec& spec = {});

/// Initial 5 wrap-bit properties (toggle events + clear): Table 2's 60%.
std::vector<ctl::Formula> queue_wrap_properties_initial(
    const CircularQueueSpec&);

/// The 3 additional hold properties written after inspecting uncovered
/// states (still conditioned on !stall, so the pend states stay uncovered).
std::vector<ctl::Formula> queue_wrap_properties_additional(
    const CircularQueueSpec&);

/// The final property: the wrap bit remains unchanged while stalled.
/// Closes the hole to 100%.
ctl::Formula queue_wrap_stall_property(const CircularQueueSpec&);

/// The 2 `full` properties and 2 `empty` properties (100% rows).
std::vector<ctl::Formula> queue_full_properties(const CircularQueueSpec&);
std::vector<ctl::Formula> queue_empty_properties(const CircularQueueSpec&);

// --------------------------------------------------------------------------
// Circuit 3: decode pipeline
// --------------------------------------------------------------------------

struct PipelineSpec {
  unsigned stages = 3;        ///< Data stages before the output register.
  unsigned hold_cycles = 3;   ///< End-of-pipe processing time.
};

model::Model make_pipeline(const PipelineSpec& spec = {});

/// Initial 8 properties on the 1-bit datapath output (AF eventualities,
/// nested Untils, last-stage transfers): Table 2's 74.36%.
std::vector<ctl::Formula> pipeline_properties_initial(const PipelineSpec&);

/// Output-hold stability properties that close the 3-cycle hold hole.
std::vector<ctl::Formula> pipeline_hold_properties(const PipelineSpec&);

// --------------------------------------------------------------------------
// Token ring: the scalable image-computation stressor
// --------------------------------------------------------------------------

struct TokenRingSpec {
  unsigned cells = 8;  ///< Ring stations; 2*cells state bits (>= 2).
  unsigned taps = 2;   ///< Stations whose data update also reads the
                       ///< station halfway across the ring (<= cells).
};

/// A one-hot token circulating through `cells` stations, each guarding a
/// data bit that toggles only while the station holds the token. The
/// transition relation is a conjunction of 2*cells small partials with
/// mostly-local support — the shape partitioned image computation with
/// early quantification is built for — while the `taps` cross-ring reads
/// deny any variable order that keeps *every* partial local, so the
/// conjoined monolithic relation would pay for the long-range
/// dependencies on every image. Scaling `cells` grows the image work
/// without changing the model's character.
model::Model make_token_ring(const TokenRingSpec& spec = {});

/// Safety suite, all holding: token uniqueness on adjacent station pairs
/// plus single-step token progression under `adv`.
std::vector<ctl::Formula> ring_safety_properties(const TokenRingSpec&);

// --------------------------------------------------------------------------
// Figure graphs
// --------------------------------------------------------------------------

/// Figure 1: the graph for AG(p1 -> AX AX q). The single covered state is
/// the one two steps after the p1 state.
model::Model make_fig1_graph();
ctl::Formula fig1_formula();

/// Figure 2: the chain for A[p1 U q] where p1 also holds at the first
/// q state. Naive Definition-3 coverage is zero; the transformed coverage
/// marks the first q state.
model::Model make_fig2_graph();
ctl::Formula fig2_formula();

/// Figure 3: branching graph for A[f1 U f2]; illustrates traverse and
/// firstreached.
model::Model make_fig3_graph();
ctl::Formula fig3_formula();

}  // namespace covest::circuits
