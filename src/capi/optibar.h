/*
 * optibar C API — topology-adaptive barriers for unmodified MPI codes.
 *
 * Section VIII of Meyer & Elster (IPDPS 2011) proposes "a library
 * implementation which would benefit unmodified application codes" built
 * on "a solution which stores the profile in a manner which can be
 * efficiently indexed at run-time". This header is that interface for C
 * (and, via ISO_C_BINDING, Fortran) MPI applications:
 *
 *   1. the admin profiles the machine once (optibar CLI) and installs
 *      the profile file;
 *   2. the application opens the library against that file;
 *   3. for its communicator (world or any rank subset) it requests a
 *      *plan*: the tuned barrier flattened into a per-rank list of
 *      point-to-point operations;
 *   4. at each barrier call the application replays its rank's ops with
 *      its own MPI calls: MPI_Issend / MPI_Irecv per op (the op's stage
 *      field is the tag), MPI_Waitall wherever stage_end is set.
 *
 * All functions are thread-safe; distinct subsets tune in parallel and
 * repeated plan requests are read-locked cache hits.
 *
 * ERROR MODEL. Every entry point sets a thread-local status code,
 * readable via optibar_last_status(); on failure a thread-local
 * message is readable via optibar_last_error(). Failing functions
 * additionally return NULL / 0.
 *
 * MIGRATION from the errbuf API: the errbuf-taking signatures have been
 * removed. Replace
 *     optibar_open(path, errbuf, len)       -> optibar_open_v2(path, 1)
 *     optibar_world_plan(lib, errbuf, len)  -> optibar_world_plan_v2(lib)
 *     optibar_subset_plan(lib, r, n, e, l)  -> optibar_subset_plan_v2(lib, r, n)
 * and on NULL results read optibar_last_status() / optibar_last_error()
 * instead of the buffer.
 */
#ifndef OPTIBAR_CAPI_H
#define OPTIBAR_CAPI_H

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef struct optibar_library_s optibar_library;
typedef struct optibar_plan_s optibar_plan;

/* Outcome of the most recent optibar call on the calling thread. */
typedef enum {
  OPTIBAR_OK = 0,
  OPTIBAR_ERR_INVALID_ARGUMENT = 1, /* NULL handle, bad rank/subset, ... */
  OPTIBAR_ERR_IO = 2,               /* profile file unreadable/malformed */
  OPTIBAR_ERR_TUNING = 3,           /* the tuning pipeline failed */
  OPTIBAR_ERR_INTERNAL = 4,         /* unexpected failure; report a bug */
  OPTIBAR_DEGRADED = 5 /* plan served, but it is the quarantine fallback
                        * (a dissemination barrier), not the tuned plan.
                        * Not an error: the plan pointer is non-NULL and
                        * fully usable; optibar_last_error() carries the
                        * quarantine reason. See optibar_report_stall. */
} optibar_status;

/* Status of the most recent optibar call made by this thread. */
optibar_status optibar_last_status(void);

/* Message of the most recent failure on this thread; "" after success.
 * The pointer stays valid until the thread's next optibar call. */
const char* optibar_last_error(void);

/* Static name of a status code, e.g. "OPTIBAR_ERR_IO". */
const char* optibar_status_string(optibar_status status);

/* One point-to-point operation of a rank's barrier sequence. */
typedef struct {
  int stage;     /* stage index; use as the MPI tag (offset per episode) */
  int is_send;   /* 1: synchronized send to `peer`; 0: receive from it */
  int peer;      /* local rank within the plan's communicator */
  int stage_end; /* 1: MPI_Waitall over the stage's requests after this op */
} optibar_op;

/* Open a library over a stored machine profile. `threads` is the
 * tuning engine's execution width: 1 = serial, 0 = one per hardware
 * thread. NULL on failure (status: IO or INVALID_ARGUMENT). */
optibar_library* optibar_open_v2(const char* profile_path, size_t threads);

void optibar_close(optibar_library* library);

/* Number of ranks covered by the profile; 0 on NULL. */
size_t optibar_ranks(const optibar_library* library);

/* Tuned plan for all ranks. Owned by the library; valid until close.
 * NULL on failure (status: INVALID_ARGUMENT or TUNING). */
const optibar_plan* optibar_world_plan_v2(optibar_library* library);

/* Tuned plan for a rank subset (the subset order defines the plan's
 * local rank numbering). Cached: repeated requests are lookups.
 * NULL on failure (status: INVALID_ARGUMENT or TUNING). */
const optibar_plan* optibar_subset_plan_v2(optibar_library* library,
                                           const size_t* ranks, size_t count);

/* Batch tuning: `count` subsets, concatenated into `ranks` with
 * per-subset lengths in `counts` (subset s occupies ranks[sum(counts[0
 * .. s-1]) .. +counts[s]]). Not-yet-cached subsets tune in parallel
 * across the library's thread pool. Fills out_plans[0..count-1] and
 * returns count; on failure returns 0 and sets the status (no plans
 * are partially written). */
size_t optibar_tune_all(optibar_library* library, const size_t* ranks,
                        const size_t* counts, size_t count,
                        const optibar_plan** out_plans);

/* Plan introspection. */
size_t optibar_plan_ranks(const optibar_plan* plan);
double optibar_plan_predicted_seconds(const optibar_plan* plan);
size_t optibar_plan_stage_count(const optibar_plan* plan);

/* Number of ops rank `rank` executes per barrier call; 0 (with status
 * INVALID_ARGUMENT) when `plan` is NULL or `rank` is out of range. */
size_t optibar_plan_op_count(const optibar_plan* plan, size_t rank);

/* Copy up to `capacity` of rank `rank`'s ops into `out`; returns the
 * number copied (equal to op_count when capacity suffices), 0 with
 * status INVALID_ARGUMENT on NULL plan/out or out-of-range rank. */
size_t optibar_plan_ops(const optibar_plan* plan, size_t rank,
                        optibar_op* out, size_t capacity);

/*
 * FAILURE SEMANTICS. Tuned plans are an optimization, never a
 * correctness dependency. An application that watches a served plan
 * stall in production (its own timeout, or a StallReport from the
 * simulation harness) reports the failure here. After
 * `quarantine_threshold` reports (default 3) for the same subset the
 * library quarantines the tuned plan: subsequent plan requests for
 * that subset return a conservative dissemination barrier instead and
 * set the status OPTIBAR_DEGRADED (the plan pointer is still valid and
 * usable — DEGRADED is a warning, not a failure). Previously returned
 * plan pointers for the subset remain valid.
 *
 * Returns 1 when the subset is now served degraded, 0 when the report
 * was recorded but the threshold is not yet reached, and -1 on error
 * (status INVALID_ARGUMENT: bad subset, or no plan was ever served for
 * it). `detail` is an optional human-readable description of the
 * observed failure (may be NULL); it is embedded in the quarantine
 * reason surfaced through optibar_last_error(). */
int optibar_report_stall(optibar_library* library, const size_t* ranks,
                         size_t count, const char* detail);

/* 1 when `plan` is a quarantine fallback (see optibar_report_stall),
 * 0 otherwise; 0 with status INVALID_ARGUMENT on NULL. */
int optibar_plan_is_degraded(const optibar_plan* plan);

/*
 * PLAN SERVICE. The library is a long-running, self-healing plan
 * service: every served plan carries a lifecycle state
 * (healthy -> suspect -> quarantined -> retuning -> probation ->
 * healthy; degraded is terminal), driven by the feedback calls below.
 * With auto-repair enabled (optibar_open_service) a quarantined plan is
 * re-tuned by a background worker against failure-inflated cost
 * estimates while the fallback keeps serving; the repaired plan is
 * promoted only after it beats the fallback in simulation, then must
 * survive a probation period of successful executions.
 */
typedef enum {
  OPTIBAR_PLAN_HEALTHY = 0,     /* serving the tuned plan */
  OPTIBAR_PLAN_SUSPECT = 1,     /* failures below the threshold */
  OPTIBAR_PLAN_QUARANTINED = 2, /* serving the fallback; repair queued */
  OPTIBAR_PLAN_RETUNING = 3,    /* serving the fallback; repair running */
  OPTIBAR_PLAN_PROBATION = 4,   /* serving the repaired plan, on trial */
  OPTIBAR_PLAN_DEGRADED = 5     /* fallback forever; repairs exhausted */
} optibar_plan_state_t;

/* Open a library with the self-healing service enabled: auto_repair
 * != 0 starts the background repair loop (quarantined plans are
 * re-tuned and promoted back). Otherwise identical to optibar_open_v2.
 * NULL on failure (status: IO or INVALID_ARGUMENT). */
optibar_library* optibar_open_service(const char* profile_path,
                                      size_t threads, int auto_repair);

/* Lifecycle state of the subset's plan, written to *out_state. Returns
 * OPTIBAR_OK, or an error status (INVALID_ARGUMENT: bad subset, NULL
 * out_state, or no plan was ever served for the subset). */
optibar_status optibar_plan_state(optibar_library* library,
                                  const size_t* ranks, size_t count,
                                  optibar_plan_state_t* out_state);

/* Feed one measured point-to-point latency (seconds) for the local
 * subset ranks (src, dst) into the subset's drift monitor. Non-finite
 * or negative measurements, src == dst, and out-of-range indices are
 * rejected with INVALID_ARGUMENT. With auto-repair, drift beyond the
 * re-tune threshold triggers a background re-tune of the plan. */
optibar_status optibar_report_latency(optibar_library* library,
                                      const size_t* ranks, size_t count,
                                      size_t src, size_t dst, double seconds);

/* Positive feedback: the subset's served plan executed to completion.
 * Advances probation back toward healthy and clears suspect counts. */
optibar_status optibar_report_success(optibar_library* library,
                                      const size_t* ranks, size_t count);

/* Block until the background repair queue is drained and no repair is
 * running. Immediate when auto-repair is off. */
optibar_status optibar_service_wait(optibar_library* library);

/* Persist every cached plan plus its health record to `path` (plan
 * store v1, docs/FORMATS.md). The write is atomic: a temporary sibling
 * is renamed into place. */
optibar_status optibar_store_save(optibar_library* library, const char* path);

/* Warm restart: load a plan store into a freshly opened library (no
 * plans requested yet). Health states are restored; with auto-repair,
 * loaded quarantines re-enqueue their repair. Malformed, truncated, or
 * mismatched stores fail with OPTIBAR_ERR_IO and leave the library
 * usable. */
optibar_status optibar_store_load(optibar_library* library, const char* path);

/* Collective operation kinds for optibar_tune_collective_v2. */
typedef enum {
  OPTIBAR_COLLECTIVE_BCAST = 0,
  OPTIBAR_COLLECTIVE_REDUCE = 1,
  OPTIBAR_COLLECTIVE_ALLREDUCE = 2
} optibar_collective_op;

/* Tune a payload-carrying collective (broadcast / reduce / allreduce)
 * against the library's profile. `payload_bytes` is the total payload
 * (must be a multiple of 8, the engine's element width; 0 tunes the
 * pure signalling pattern); `root` is the root rank for the rooted ops
 * and is ignored for allreduce. On success writes the predicted
 * completion time into *out_predicted_seconds and the stage count of
 * the winning schedule into *out_stages (either pointer may be NULL)
 * and returns OPTIBAR_OK. On failure returns the error status (also
 * readable via optibar_last_status / optibar_last_error) and leaves
 * the out parameters unwritten. */
optibar_status optibar_tune_collective_v2(optibar_library* library,
                                          optibar_collective_op op,
                                          size_t payload_bytes, size_t root,
                                          double* out_predicted_seconds,
                                          size_t* out_stages);

/* Transport policy chosen by optibar_tune_hybrid_v2. */
typedef enum {
  OPTIBAR_TRANSPORT_TWO_SIDED = 0, /* every signal is a matched send/recv */
  OPTIBAR_TRANSPORT_ONE_SIDED = 1, /* every signal is an RMA put */
  OPTIBAR_TRANSPORT_HYBRID = 2     /* per-edge choice by predicted cost */
} optibar_transport;

/* Tune the full-communicator barrier and pick the cheapest transport
 * assignment among all-two-sided, all-one-sided, and the per-edge
 * hybrid descent, under the extended cost model (one-sided delivery
 * latency R; profiles without R data price puts at the conservative
 * L fallback and come back all-two-sided). On success writes the
 * predicted completion time of the winner into *out_predicted_seconds,
 * the winning policy into *out_transport, and the number of signals it
 * tags one-sided into *out_one_sided_signals (each pointer may be
 * NULL) and returns OPTIBAR_OK. On failure returns the error status
 * with optibar_last_error() describing the failure, and leaves the out
 * parameters unwritten. */
optibar_status optibar_tune_hybrid_v2(optibar_library* library,
                                      double* out_predicted_seconds,
                                      optibar_transport* out_transport,
                                      size_t* out_one_sided_signals);

/*
 * NONBLOCKING EPISODES (MPI_Ibarrier-style lifecycle). A post starts
 * one in-process execution of a tuned schedule on the library's
 * threaded runtime — every rank of the profile runs as a thread — and
 * returns an episode handle immediately, so the caller overlaps its own
 * computation with the synchronization. The handle follows the same
 * status-code idiom as every other entry point: each call sets
 * optibar_last_status() / optibar_last_error().
 *
 *     optibar_episode* e = optibar_ibarrier_post(lib);
 *     while (optibar_ibarrier_test(e) == 0) { compute_some(); }
 *     optibar_ibarrier_wait(e);   // joins and frees the episode
 *
 * An episode MUST be waited exactly once (wait frees it, even after
 * failure) and before optibar_close on its library. Episodes are
 * independent; several may be in flight concurrently.
 */
typedef struct optibar_episode_s optibar_episode;

/* Post one execution of the library's tuned full-communicator barrier
 * (the same plan optibar_world_plan_v2 serves, including the degraded
 * fallback after quarantine). NULL on failure (status:
 * INVALID_ARGUMENT or TUNING). */
optibar_episode* optibar_ibarrier_post(optibar_library* library);

/* Nonblocking probe: 1 when the episode completed, 0 while it is still
 * in flight, -1 when `episode` is NULL or the run failed (the status
 * carries the failure; the episode stays valid until waited). */
int optibar_ibarrier_test(optibar_episode* episode);

/* Block until the episode reaches a terminal state, free it, and
 * return its final status (OPTIBAR_OK on completion). */
optibar_status optibar_ibarrier_wait(optibar_episode* episode);

/* Post one execution of a tuned payload-carrying collective. `data`
 * holds every rank's buffer concatenated — ranks * elem_count
 * little-endian 64-bit words, rank r's buffer at data[r * elem_count]
 * — and must stay valid and untouched until the episode tests done or
 * is waited; on completion it holds the per-rank results (reduce
 * combines with sum). `root` is ignored for allreduce. NULL on failure
 * (status: INVALID_ARGUMENT or TUNING). */
optibar_episode* optibar_icollective_post(optibar_library* library,
                                          optibar_collective_op op,
                                          uint64_t* data, size_t elem_count,
                                          size_t root);

/* Same contract as optibar_ibarrier_test / optibar_ibarrier_wait. */
int optibar_icollective_test(optibar_episode* episode);
optibar_status optibar_icollective_wait(optibar_episode* episode);

#ifdef __cplusplus
}
#endif

#endif /* OPTIBAR_CAPI_H */
