(* Observability substrate.  See obs.mli / DESIGN.md §11 for the
   contract; the short version:

   - recording entry points gate on one mutable-but-set-once config
     record, so the disabled path is a load and a branch;
   - all recorded values are exact native ints (the lint's float ban
     is active here; the one wall-clock read in the span timer is the
     recorded exception);
   - registration happens at module initialisation (single domain),
     recording may happen from any Parwork worker domain, so cells are
     Atomic.t and span aggregates insert via a CAS loop. *)

type config = { mutable metrics : bool; mutable spans : bool }

(* Set once at process start, read on every recording call.  Not an
   Atomic: a torn read could at worst skip or record one event around
   the flip, and the flip happens before solvers run.  Race-lint
   audit: worker domains only ever *read* these booleans, and the CLI
   flips them before the first Parwork fan-out. *)
let[@lint.allow "race"] config = { metrics = false; spans = false }

let set_metrics b = config.metrics <- b
let set_spans b = config.spans <- b
let metrics_enabled () = config.metrics
let spans_enabled () = config.spans

let by_subsystem_name sa na sb nb =
  match String.compare sa sb with 0 -> String.compare na nb | c -> c

module Counter = struct
  type t = { subsystem : string; name : string; cell : int Atomic.t }

  (* Race-lint audit: mutated only by [make], which runs at module
     initialisation on the single startup domain; workers touch the
     Atomic cells, never the list.  [snapshot]/[reset] run after the
     domains have joined. *)
  let[@lint.allow "race"] registry : t list ref = ref []

  let make ~subsystem name =
    match
      List.find_opt
        (fun c ->
          String.equal c.subsystem subsystem && String.equal c.name name)
        !registry
    with
    | Some c -> c
    | None ->
        let c = { subsystem; name; cell = Atomic.make 0 } in
        registry := c :: !registry;
        c

  let incr c = if config.metrics then ignore (Atomic.fetch_and_add c.cell 1)

  let add c n =
    if config.metrics then begin
      if n < 0 then invalid_arg "Obs.Counter.add: counters are monotonic";
      ignore (Atomic.fetch_and_add c.cell n)
    end

  let value c = Atomic.get c.cell
  let subsystem c = c.subsystem
  let name c = c.name
end

module Gauge = struct
  type t = { subsystem : string; name : string; cell : int Atomic.t }

  (* Race-lint audit: same single-domain init discipline as
     [Counter.registry]. *)
  let[@lint.allow "race"] registry : t list ref = ref []

  let make ~subsystem name =
    match
      List.find_opt
        (fun g ->
          String.equal g.subsystem subsystem && String.equal g.name name)
        !registry
    with
    | Some g -> g
    | None ->
        let g = { subsystem; name; cell = Atomic.make 0 } in
        registry := g :: !registry;
        g

  let set g n = if config.metrics then Atomic.set g.cell n

  let set_max g n =
    if config.metrics then begin
      let rec go () =
        let cur = Atomic.get g.cell in
        if n > cur && not (Atomic.compare_and_set g.cell cur n) then go ()
      in
      go ()
    end

  let value g = Atomic.get g.cell
end

module Span = struct
  type agg = { path : string; count : int Atomic.t; total_ns : int Atomic.t }

  (* Lock-free insert-only list: spans are few (named call sites), so a
     linear scan per open/close is cheaper than any table, and the CAS
     append keeps worker-domain spans safe. *)
  let aggregates : agg list Atomic.t = Atomic.make []

  let find_or_add path =
    let find () =
      List.find_opt (fun a -> String.equal a.path path) (Atomic.get aggregates)
    in
    match find () with
    | Some a -> a
    | None ->
        let rec insert () =
          match find () with
          | Some a -> a
          | None ->
              let cur = Atomic.get aggregates in
              let a =
                { path; count = Atomic.make 0; total_ns = Atomic.make 0 }
              in
              if Atomic.compare_and_set aggregates cur (a :: cur) then a
              else insert ()
        in
        insert ()

  (* Per-domain stack of full span paths: nesting is tracked where the
     call happens, so no two domains race one stack.  A Parwork task
     carries its submitter's path across domains through [path] and
     [under]. *)
  let stack_key : string list Domain.DLS.key =
    Domain.DLS.new_key (fun () -> [])

  let path () =
    match Domain.DLS.get stack_key with [] -> "" | p :: _ -> p

  let under parent f =
    if not config.spans then f ()
    else begin
      let stack = Domain.DLS.get stack_key in
      Domain.DLS.set stack_key (if String.equal parent "" then [] else [ parent ]);
      Fun.protect ~finally:(fun () -> Domain.DLS.set stack_key stack) f
    end

  (* The single sanctioned wall-clock/float boundary of the library:
     span durations are *reporting* output, never solver input. *)
  let[@lint.allow "float", "determinism"] now_ns () =
    int_of_float (Unix.gettimeofday () *. 1e9)

  let with_ name f =
    if not config.spans then f ()
    else begin
      let stack = Domain.DLS.get stack_key in
      let path =
        match stack with [] -> name | parent :: _ -> parent ^ "/" ^ name
      in
      Domain.DLS.set stack_key (path :: stack);
      let t0 = now_ns () in
      Fun.protect
        ~finally:(fun () ->
          let dt = now_ns () - t0 in
          let a = find_or_add path in
          ignore (Atomic.fetch_and_add a.count 1);
          ignore (Atomic.fetch_and_add a.total_ns (if dt > 0 then dt else 0));
          Domain.DLS.set stack_key stack)
        f
    end

  type record = { path : string; count : int; total_ns : int }

  let records () =
    Atomic.get aggregates
    |> List.map (fun (a : agg) ->
           {
             path = a.path;
             count = Atomic.get a.count;
             total_ns = Atomic.get a.total_ns;
           })
    |> List.sort (fun a b -> String.compare a.path b.path)

  let reset () =
    (* keep the aggregate cells (call sites may hold none — paths are
       looked up per call) but drop the list so records () is empty *)
    Atomic.set aggregates []
end

(* ------------------------------------------------------------------ *)
(* GC gauges                                                           *)
(* ------------------------------------------------------------------ *)

(* Registered at module initialisation like every other cell, so the
   gauge schema is stable whether or not record_gc ever runs. *)
let g_heap_words = Gauge.make ~subsystem:"gc" "heap_words"
let g_top_heap_words = Gauge.make ~subsystem:"gc" "top_heap_words"
let g_minor_collections = Gauge.make ~subsystem:"gc" "minor_collections"
let g_major_collections = Gauge.make ~subsystem:"gc" "major_collections"
let g_compactions = Gauge.make ~subsystem:"gc" "compactions"

let record_gc () =
  if config.metrics then begin
    let s = Gc.quick_stat () in
    Gauge.set g_heap_words s.Gc.heap_words;
    Gauge.set_max g_top_heap_words s.Gc.top_heap_words;
    Gauge.set g_minor_collections s.Gc.minor_collections;
    Gauge.set g_major_collections s.Gc.major_collections;
    Gauge.set g_compactions s.Gc.compactions
  end

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type entry = { subsystem : string; name : string; value : int }

type snapshot = { snap_counters : entry list; snap_gauges : entry list }

let sorted_entries read =
  read ()
  |> List.sort (fun a b -> by_subsystem_name a.subsystem a.name b.subsystem b.name)

let snapshot () =
  let of_counter (c : Counter.t) =
    { subsystem = Counter.subsystem c; name = Counter.name c;
      value = Counter.value c }
  in
  let of_gauge (g : Gauge.t) =
    { subsystem = g.Gauge.subsystem; name = g.Gauge.name;
      value = Gauge.value g }
  in
  {
    snap_counters = sorted_entries (fun () -> List.map of_counter !Counter.registry);
    snap_gauges = sorted_entries (fun () -> List.map of_gauge !Gauge.registry);
  }

let counters s = s.snap_counters
let gauges s = s.snap_gauges

let find_entry entries ~subsystem name =
  List.find_opt
    (fun e -> String.equal e.subsystem subsystem && String.equal e.name name)
    entries

let counter_value s ~subsystem name =
  match find_entry s.snap_counters ~subsystem name with
  | Some e -> e.value
  | None -> 0

let diff later earlier =
  let sub e =
    let base =
      match find_entry earlier.snap_counters ~subsystem:e.subsystem e.name with
      | Some b -> b.value
      | None -> 0
    in
    { e with value = e.value - base }
  in
  { later with snap_counters = List.map sub later.snap_counters }

let known_subsystems () =
  List.map (fun (c : Counter.t) -> Counter.subsystem c) !Counter.registry
  @ List.map (fun (g : Gauge.t) -> g.Gauge.subsystem) !Gauge.registry
  |> List.sort_uniq String.compare

let filter_subsystems subs s =
  let keep e = List.exists (String.equal e.subsystem) subs in
  {
    snap_counters = List.filter keep s.snap_counters;
    snap_gauges = List.filter keep s.snap_gauges;
  }

let reset () =
  List.iter (fun (c : Counter.t) -> Atomic.set c.Counter.cell 0)
    !Counter.registry;
  List.iter (fun (g : Gauge.t) -> Atomic.set g.Gauge.cell 0) !Gauge.registry;
  Span.reset ()

(* ------------------------------------------------------------------ *)
(* Serialisation                                                       *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let entry_lines buf entries =
  let n = List.length entries in
  List.iteri
    (fun i e ->
      Buffer.add_string buf
        (Printf.sprintf "    { \"subsystem\": \"%s\", \"name\": \"%s\", \"value\": %d }%s\n"
           (json_escape e.subsystem) (json_escape e.name) e.value
           (if i = n - 1 then "" else ",")))
    entries

let to_json ?(spans = false) s =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"tool\": \"ringshare-obs\",\n";
  Buffer.add_string buf "  \"version\": 1,\n";
  Buffer.add_string buf "  \"counters\": [\n";
  entry_lines buf s.snap_counters;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"gauges\": [\n";
  entry_lines buf s.snap_gauges;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"spans\": [\n";
  (if spans then begin
     let rs = Span.records () in
     let n = List.length rs in
     List.iteri
       (fun i (r : Span.record) ->
         Buffer.add_string buf
           (Printf.sprintf
              "    { \"path\": \"%s\", \"count\": %d, \"total_ns\": %d }%s\n"
              (json_escape r.path) r.count r.total_ns
              (if i = n - 1 then "" else ",")))
       rs
   end);
  Buffer.add_string buf "  ]\n";
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_json ?spans ~path s =
  (* temp + fsync + rename, as Checkpoint: a crash mid-write must never
     leave a truncated metrics artifact.  (Obs sits below the runtime
     library, so callers wanting failpoint coverage on this path go
     through Artifact.write instead.) *)
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_json ?spans s);
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path
