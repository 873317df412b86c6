(** Process-wide metrics registry: named monotonic counters, gauges, and
    fixed-bucket latency histograms, cheap enough to leave on.

    A handle ([counter]/[gauge]/[histogram]) is interned by name once —
    typically at module initialization — and every update is a plain
    mutable store on the handle: no hashing, no allocation. Exporters walk
    the registry sorted by name, optionally filtered by a name prefix.

    The registry is deliberately global: the planning layers tick it
    unconditionally, so live sessions ([\metrics], [--metrics-out]) and the
    bench harness ([BENCH_results.json]) report through one schema. It is
    also the only store of lifetime counts: nothing resets it, so every
    counter is monotonic for the life of the process and a reader counts
    one piece of work as a delta (read before, read after).

    Safe for concurrent writers: counters, gauges and histogram buckets are
    atomic cells and interning/export is serialized on a registry mutex, so
    parallel server domains never tear an update — N domains doing K
    increments each always total N*K. *)

type counter
type gauge
type histogram

(** Interns (or returns the existing) metric of that name. *)
val counter : string -> counter

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : string -> gauge
val set : gauge -> float -> unit

(** Atomic relative adjustment (e.g. active-connection counts: [+1.] on
    accept, [-1.] on close, correct under concurrency). *)
val gauge_add : gauge -> float -> unit

val gauge_value : gauge -> float

(** [bounds] are inclusive upper bucket bounds in milliseconds; the default
    spans ~10us to 1s plus an overflow bucket. Bounds are fixed at first
    interning. *)
val histogram : ?bounds:float array -> string -> histogram

(** Record one observation, in milliseconds. *)
val observe : histogram -> float -> unit

val hist_count : histogram -> int
val hist_sum : histogram -> float

(** Per-bucket counts; the final entry is the overflow bucket. *)
val bucket_counts : histogram -> int array

(** Wall-clock milliseconds (for manual timing). *)
val now_ms : unit -> float

(** [time h f] runs [f] and records its wall-clock duration in [h] — also
    on exception, which is re-raised. *)
val time : histogram -> (unit -> 'a) -> 'a

(** The metrics object schema, shared with [BENCH_results.json]:
    [{"counters": {..}, "gauges": {..}, "histograms": {name: {"count",
    "sum_ms", "buckets": [{"le_ms", "count"}...], "overflow"}}}]. *)
val to_json : ?prefix:string -> unit -> Json.t

val to_text : ?prefix:string -> unit -> string

(** Write {!to_json} to a file. *)
val dump : ?prefix:string -> string -> unit
