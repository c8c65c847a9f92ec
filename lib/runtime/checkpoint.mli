(** Atomic snapshot files for the long-running searches.

    A checkpoint is a small line-based key/value file:
    {v
    ringshare-checkpoint v1
    kind hunt
    seed 5
    rng 4242
    ...
    end 7
    v}
    [end <count>] closes the file with the number of field lines, so a
    torn or truncated snapshot is always rejected on load.  {!save}
    writes to a temporary file in the same directory, fsyncs, then
    renames over the target — a crash at any instant leaves either the
    old snapshot or the new one, never a mix.

    Keys are single tokens; values run to the end of the line.  Field
    order is preserved. *)

val save : path:string -> kind:string -> (string * string) list -> unit
(** Atomically replace [path] with a snapshot of [kind] and the fields.
    @raise Ringshare_error.Error ([Io_error]) if writing fails. *)

val load :
  path:string -> kind:string -> ((string * string) list, Ringshare_error.t) result
(** Read a snapshot back, validating header, kind, and the [end] count.
    [Error (Parse_error _)] names the offending line on any mismatch. *)

val field : (string * string) list -> string -> string
(** First value bound to the key.
    @raise Ringshare_error.Error ([Invalid_input]) if absent. *)

val int_field : (string * string) list -> string -> int
val int64_field : (string * string) list -> string -> int64
val bool_field : (string * string) list -> string -> bool

val legacy_int_field : default:int -> (string * string) list -> string -> int
(** An int field that snapshots written before it existed lack: absent
    reads as [default] (e.g. [identities], 2 before k-way splits).
    @raise Ringshare_error.Error ([Invalid_input]) if present but not an
    int. *)
