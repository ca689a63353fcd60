(** Structured observability for the runtime and the compiler (paper
    Section 5 instrumentation; Tables 8-9 / Figures 5-7 attribution).

    Three facilities share one set of per-domain buffers:

    - {b Metrics}: named counters and streaming quantile estimators
      (count/sum/min/max plus p50/p99/p999 from a bounded mergeable
      {!Qsketch} — ~2.2% documented relative error, O(1) state per
      metric per shard however many samples flow through). Every update
      writes only to the calling domain's shard — no locks, no racing
      increments under [ACE_DOMAINS > 1] — and reads merge all shards by
      commutative bucket sums, so totals are exact and quantiles are
      merge-order independent whatever the pool width. Always on; an
      update is a domain-local bucket increment.
    - {b Spans}: nestable wall-clock intervals with a name, a category and
      string attributes, recorded per domain and emitted as Chrome
      [trace_event] JSON ([chrome://tracing] / Perfetto). Off by default:
      a disabled span costs one atomic flag read. Enabled by
      [ACE_TRACE=out.json] (written at exit) or {!configure}.
    - {b Flight recorder}: one record per evaluator operation describing
      the result ciphertext — op, level, limbs, scale bits and a
      structural noise-budget estimate (modulus headroom over the scale).
      Off by default; enabled by [ACE_FLIGHT=1] or {!configure}.

    [ACE_METRICS=1] additionally dumps the {!to_json} snapshot to stderr
    at exit. [ACE_METRICS_INTERVAL=0.5] starts the periodic JSONL flusher
    ({!metrics_flush}) writing windowed deltas to [ACE_METRICS_PATH]
    (default [ace_metrics.jsonl]); [tools/ace_report.exe] merges such
    files across processes. Shards are keyed by [Domain.DLS], so any
    domain — pool workers included — records into its own buffer;
    {!snapshot}, {!events} and {!flight_records} merge them. *)

val schema_version : int
(** Version stamp of {!to_json}, the JSONL flush lines and the trace
    file; bumped on layout changes so downstream artifacts
    (BENCH_pr*.json) are diffable. *)

(** {1 Metrics} *)

type metric
(** Dense handle for a named counter + quantile sketch; register once,
    update cheaply. Registering the same name twice returns the same
    handle. *)

val metric : string -> metric
val metric_name : metric -> string

val incr : metric -> unit
(** Add one to the metric's counter (domain-local). *)

val observe : metric -> float -> unit
(** Feed one sample (seconds, bytes, ...) into the metric's sketch:
    count, sum, exact min/max and the log-bucket quantile state. O(1),
    bounded memory (see {!Qsketch}). *)

val count_of : metric -> int
(** Merged {!incr} total across all domains. *)

val sum_of : metric -> float
(** Merged {!observe} sum across all domains. *)

val metric_names : unit -> string list
(** Names with at least one recorded increment or sample, sorted. *)

(** {1 Spans / tracing} *)

val tracing : unit -> bool
val set_tracing : bool -> unit

val span : ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f], recording a complete-event span around it when
    tracing is on (one flag read and no allocation when off). Spans nest by
    wall-clock containment per domain, which is exactly how the Chrome
    viewer stacks them. Exceptions still close the span. *)

val timed : ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a * float
(** Like {!span} but always measures, returning [(value, seconds)] —
    the compile-pipeline per-IR-level timer. *)

val record : metric -> (unit -> 'a) -> 'a
(** [record m f] runs [f] as one occurrence of [m]: it counts it, feeds
    its wall-clock seconds to [m]'s sketch and, when tracing is on, emits
    a span named after [m] (category: the name up to its first dot).
    Exceptions are still counted and timed. The runtime's per-op
    primitive: [fhe.<op>] metrics are recorded this way. *)

val emit_span :
  ?cat:string -> ?args:(string * string) list -> name:string -> t0:float -> dur:float -> unit -> unit
(** Record an already-measured interval ([t0] absolute
    [Unix.gettimeofday] seconds, [dur] seconds). No-op when tracing is
    off. For callers that manage their own clocks (the VM's per-operator
    grouping). *)

type event = {
  ev_tid : int;  (** recording domain's shard id (trace "thread") *)
  ev_name : string;
  ev_cat : string;
  ev_ts_us : float;  (** microseconds since process start *)
  ev_dur_us : float;
  ev_args : (string * string) list;
}

val events : unit -> event list
(** All recorded spans, merged across domains, sorted by start time. *)

val dropped_events : unit -> int
(** Spans discarded because a shard's buffer hit its cap. *)

val trace_json : unit -> string
(** The merged spans as a Chrome [trace_event] JSON document. The
    top-level [droppedEvents] member carries {!dropped_events} so trace
    consumers (tools/check_trace.exe [--no-drops]) can reject silently
    truncated artifacts. *)

val write_trace : string -> unit

(** {1 Ciphertext flight recorder} *)

type flight_record = {
  fl_seq : int;  (** global order of recording *)
  fl_op : string;
  fl_degree : int;
      (** ciphertext degree (polynomial count minus 1): 1 for ordinary
          ciphertexts, >= 2 inside a lazy-relin region (Cipher3) — those
          records, and the relinearization closing them, carry the
          s^2-term penalty in [fl_budget_bits] *)
  fl_level : int;
  fl_limbs : int;
  fl_scale_bits : float;  (** log2 of the result's scale *)
  fl_budget_bits : float;
      (** structural noise-budget estimate: log2(prod q_i, i <= level)
          minus scale bits — the headroom between the message magnitude
          and the modulus — minus, on degree-2 (Cipher3) ciphertexts from
          the lazy-relin path and on the relinearization that closes
          them, the s^2-term penalty (0.5 log2 N + 1 bits; see
          lib/fhe/eval.ml). Monotone non-increasing along a lazy region
          through its closing relinearization; restored only by
          bootstrapping. *)
}

val flight_on : unit -> bool
val set_flight : bool -> unit

val flight_record :
  op:string ->
  ?degree:int ->
  level:int ->
  limbs:int ->
  scale_bits:float ->
  budget_bits:float ->
  unit ->
  unit
(** [degree] defaults to 1 (an ordinary two-polynomial ciphertext). *)

val flight_records : unit -> flight_record list
(** Merged across domains, sorted by [fl_seq]. *)

(** {1 Snapshot} *)

type metric_stats = {
  st_name : string;
  st_count : int;
  st_total : float;
  st_min : float;
  st_max : float;
  st_p50 : float;
  st_p99 : float;
  st_p999 : float;
}
(** Quantiles carry {!Qsketch.relative_error} (~2.2%) relative accuracy;
    min/max are exact on full snapshots and bucket-approximate on
    windowed deltas. *)

type snapshot = {
  snap_domains : int;  (** shards merged (domains that ever recorded) *)
  snap_metrics : metric_stats list;
  snap_dropped : int;
}

val snapshot : unit -> snapshot
val find_stats : snapshot -> string -> metric_stats option

type window
(** An immutable baseline capture of every metric's merged state. *)

val baseline : unit -> window
(** Capture the current merged counters and sketches. O(metrics). *)

val snapshot_since : window -> snapshot
(** The delta window between [baseline] and now, by bucket-wise sketch
    subtraction: counts/sums/quantiles describe only samples recorded
    after the baseline. Nothing is reset, so concurrent recorders are
    never raced (unlike {!reset_metrics} bracketing) — the serving-loop
    reporting primitive. Windows taken before a {!reset_metrics} are
    stale; take a fresh baseline after resetting. *)

val to_json : unit -> string
(** Snapshot as a JSON document with [schema_version], [dropped_events]
    and [quantile_relative_error], suitable for embedding in bench
    artifacts (per-category count/total/p50/p99/p999, the paper's
    Table 8-style per-op breakdown). *)

val snapshot_json : snapshot -> string
(** {!to_json} for an already-taken snapshot (e.g. a
    {!snapshot_since} delta). *)

(** {1 Periodic JSONL flush} *)

val metrics_flush : interval:float -> path:string -> unit
(** Start (or restart) the background flusher: every [interval] seconds a
    dedicated domain appends one JSON line to [path] describing the
    window since the previous line — counter deltas plus serialized
    {!Qsketch} states, so lines merge exactly across flushes, shards and
    processes ([tools/ace_report.exe]). The final window is flushed at
    exit or by {!stop_metrics_flush}. Programmatic equivalent of
    [ACE_METRICS_INTERVAL] / [ACE_METRICS_PATH]. *)

val stop_metrics_flush : unit -> unit
(** Stop the flusher and write the final partial window. No-op when not
    running. *)

val flush_now : unit -> unit
(** Append one window line immediately (flusher state advances as if the
    interval had elapsed). No-op before {!metrics_flush}. *)

val metrics_flush_active : unit -> bool

(** {1 Configuration} *)

type config = {
  cfg_trace : string option;  (** Chrome trace output path; [None] = off *)
  cfg_metrics_dump : bool;  (** dump {!to_json} to stderr at exit *)
  cfg_flight : bool;
}

val configure : config -> unit
(** Programmatic equivalent of [ACE_TRACE] / [ACE_METRICS] / [ACE_FLIGHT]
    (the environment is read once at startup; [configure] overrides it).
    The trace file is written by an [at_exit] hook and by
    {!write_trace}. *)

val current_config : unit -> config

(** {1 Reset} *)

val reset_metrics : unit -> unit
(** Zero every counter and sketch in every shard (between bench runs).
    Callers must not race this against in-flight parallel work; prefer
    {!baseline} + {!snapshot_since} in persistent processes. *)

val reset_trace : unit -> unit
val reset_flight : unit -> unit
val reset_all : unit -> unit
