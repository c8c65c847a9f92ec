(** Observability: typed counters, gauges and span timing with a
    snapshot/diff API serialising to the schema-stable
    [METRICS_ringshare.json].

    Design constraints (DESIGN.md §11):
    - {b zero-cost when disabled}: every recording entry point is a
      single branch on an immutable process-wide config; with metrics
      off no atomic operation, allocation or clock read happens;
    - {b exact ints}: counter, gauge and span values are native [int]s
      — the float ban of the PR 3 lint applies to this library, with
      the one wall-clock reporting boundary in the span timer carrying
      a recorded [@lint.allow];
    - {b no effect on results}: instrumentation is write-only from the
      solvers' point of view; enabling metrics must not change any
      computed value bit-for-bit (enforced by [test_obs.ml]);
    - {b deterministic registry}: counters and gauges are registered
      at module initialisation and serialised sorted by
      [(subsystem, name)], so the JSON schema is stable across runs
      and across machines. *)

val set_metrics : bool -> unit
(** Flip metric recording on/off.  Meant to be called once at process
    start (CLI flag parsing, bench harness, test setup), before any
    instrumented solver runs. *)

val set_spans : bool -> unit
(** Flip span timing on/off.  Independent of {!set_metrics}. *)

val metrics_enabled : unit -> bool
val spans_enabled : unit -> bool

module Counter : sig
  type t
  (** A monotonic counter: a named atomic [int] cell.  Increments from
      multiple domains are safe ({!Parwork} workers record through the
      same cells). *)

  val make : subsystem:string -> string -> t
  (** [make ~subsystem name] registers (or retrieves — [make] is
      idempotent on the pair) the counter in the global registry.
      Call at module initialisation so the registry is complete and
      deterministic before any solver runs. *)

  val incr : t -> unit
  (** Add one.  A no-op (one branch) when metrics are disabled. *)

  val add : t -> int -> unit
  (** Add [n >= 0].  A no-op (one branch) when metrics are disabled;
      when enabled, a negative [n] raises [Invalid_argument]
      (counters are monotonic). *)

  val value : t -> int
  val subsystem : t -> string
  val name : t -> string
end

module Gauge : sig
  type t
  (** A last/max-value gauge, same registry discipline as
      {!Counter}. *)

  val make : subsystem:string -> string -> t
  val set : t -> int -> unit
  val set_max : t -> int -> unit
  (** Raise the gauge to [n] if [n] is larger (atomic). *)

  val value : t -> int
end

module Span : sig
  val with_ : string -> (unit -> 'a) -> 'a
  (** [with_ name f] times [f ()] and aggregates the duration under the
      nesting path of the currently open spans on this domain, e.g.
      ["best_attack/best_split/decompose"].  When spans are disabled
      this is exactly [f ()] after one branch.  The aggregate
      (count, total nanoseconds) is exact-int; the clock read is the
      library's single sanctioned wall-clock/float boundary. *)

  val path : unit -> string
  (** The path of the innermost span open on this domain, [""] when
      none is. *)

  val under : string -> (unit -> 'a) -> 'a
  (** [under parent f] runs [f ()] with [parent] (a {!path} reading,
      possibly from another domain) as this domain's open span path, so
      spans [f] opens nest under it; the domain's own path is restored
      afterwards.  When spans are disabled this is exactly [f ()]. *)

  type record = { path : string; count : int; total_ns : int }

  val records : unit -> record list
  (** All aggregated spans, sorted by path. *)
end

val record_gc : unit -> unit
(** Read [Gc.quick_stat] into the [gc] gauges: [heap_words],
    [top_heap_words] (monotonic via {!Gauge.set_max}),
    [minor_collections], [major_collections], [compactions] — the
    exact-int fields only, so the float ban holds.  A no-op when
    metrics are disabled.  The gauges are registered at module
    initialisation, so they appear (as zeros) in every snapshot even
    if this is never called. *)

(** {1 Snapshots} *)

type entry = { subsystem : string; name : string; value : int }

type snapshot
(** An immutable reading of every registered counter and gauge,
    sorted by [(subsystem, name)]. *)

val snapshot : unit -> snapshot

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier]: counter values subtract pointwise (counters
    missing from [earlier] — registered in between — count from 0);
    gauge values are taken from [later] as-is. *)

val counters : snapshot -> entry list
val gauges : snapshot -> entry list

val counter_value : snapshot -> subsystem:string -> string -> int
(** 0 when absent. *)

val known_subsystems : unit -> string list
(** Sorted, deduplicated subsystem names across the registry — the
    vocabulary [--obs-only] validates against. *)

val filter_subsystems : string list -> snapshot -> snapshot

val reset : unit -> unit
(** Zero every counter and gauge and drop all span aggregates.  Test
    isolation only. *)

(** {1 Serialisation} *)

val to_json : ?spans:bool -> snapshot -> string
(** The [METRICS_ringshare.json] document: always the keys [tool],
    [version], [counters], [gauges], [spans] (the latter empty unless
    [spans] is set), each counter/gauge a one-line object so the
    artifact diffs and greps line by line. *)

val write_json : ?spans:bool -> path:string -> snapshot -> unit
(** Atomic: writes [path ^ ".tmp"], fsyncs, then renames over [path],
    so a reader never observes a truncated artifact. *)
