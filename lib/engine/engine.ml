(* Request-scoped execution engine: context, cache, batch runner.

   This module is the single source of the search-parameter defaults
   and the only place allowed to declare the historical
   [?solver ?grid ?refine ?domains] optional arguments (the
   [config-drift] lint rule pins that).  It sits below the solver
   libraries: [solver] only names a backend ([Decompose] dispatches on
   it), and cached values go through the extensible [Cache.value]
   type, so no dependency cycle forms. *)

type solver = FastChain | Flow | Brute | Auto

type sweep = Grid | Exact
(* Split-sweep policy for the incentive attack search: [Grid] is the
   historical grid-with-zoom approximation, [Exact] the event-driven
   breakpoint walk (DESIGN §16) that certifies the optimum. *)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

module Cache = struct
  type value = ..

  module Stbl = Hashtbl.Make (struct
    type t = string

    let equal = String.equal
    let hash = String.hash
  end)

  type shard = {
    mutex : Mutex.t;
    tbl : value Stbl.t;
    order : string Queue.t; (* insertion order; head = next eviction *)
  }

  type t = { shards : shard array; cap_per_shard : int; capacity : int }

  let c_lookups = Obs.Counter.make ~subsystem:"engine" "cache_lookups"
  let c_hits = Obs.Counter.make ~subsystem:"engine" "cache_hits"
  let c_misses = Obs.Counter.make ~subsystem:"engine" "cache_misses"
  let c_stores = Obs.Counter.make ~subsystem:"engine" "cache_stores"
  let c_evictions = Obs.Counter.make ~subsystem:"engine" "cache_evictions"
  let g_peak = Obs.Gauge.make ~subsystem:"engine" "cache_peak"

  let fp_lookup = Failpoint.register "engine.cache.lookup"
  let fp_insert = Failpoint.register "engine.cache.insert"
  let fp_evict = Failpoint.register "engine.cache.evict"

  let create ?(shards = 8) ~capacity () =
    if capacity < 1 then invalid_arg "Engine.Cache.create: capacity < 1";
    if shards < 1 then invalid_arg "Engine.Cache.create: shards < 1";
    let cap_per_shard = Stdlib.max 1 (capacity / shards) in
    {
      shards =
        Array.init shards (fun _ ->
            {
              mutex = Mutex.create ();
              tbl = Stbl.create 16;
              order = Queue.create ();
            });
      cap_per_shard;
      capacity;
    }

  let capacity t = t.capacity

  let shard_of t key =
    t.shards.(String.hash key mod Array.length t.shards)

  let with_shard s f =
    Mutex.lock s.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock s.mutex) f

  let length t =
    Array.fold_left
      (fun acc s -> acc + with_shard s (fun () -> Stbl.length s.tbl))
      0 t.shards

  let find t key =
    Obs.Counter.incr c_lookups;
    if Failpoint.fire fp_lookup then begin
      (* injected skip degrades to a miss; callers always recompute *)
      Obs.Counter.incr c_misses;
      None
    end
    else
      let s = shard_of t key in
      match with_shard s (fun () -> Stbl.find_opt s.tbl key) with
      | Some _ as v ->
          Obs.Counter.incr c_hits;
          v
      | None ->
          Obs.Counter.incr c_misses;
          None

  let store_locked t key value =
    let s = shard_of t key in
    let evicted =
      with_shard s (fun () ->
          if Stbl.mem s.tbl key then begin
            (* replace in place; the key keeps its eviction slot *)
            Stbl.replace s.tbl key value;
            0
          end
          else begin
            let evicted =
              if Stbl.length s.tbl >= t.cap_per_shard then begin
                (* fires before any mutation, so an injected fault
                   leaves the shard exactly as it was *)
                Failpoint.hit fp_evict;
                let oldest = Queue.pop s.order in
                Stbl.remove s.tbl oldest;
                1
              end
              else 0
            in
            Stbl.replace s.tbl key value;
            Queue.push key s.order;
            evicted
          end)
    in
    if Obs.metrics_enabled () then begin
      Obs.Counter.incr c_stores;
      Obs.Counter.add c_evictions evicted;
      Obs.Gauge.set_max g_peak (length t)
    end

  let store t key value =
    (* injected skip drops the entry; correctness never depends on a
       store landing *)
    if Failpoint.fire fp_insert then () else store_locked t key value

  let clear t =
    Array.iter
      (fun s ->
        with_shard s (fun () ->
            Stbl.reset s.tbl;
            Queue.clear s.order))
      t.shards
end

(* ------------------------------------------------------------------ *)
(* Context                                                             *)
(* ------------------------------------------------------------------ *)

module Ctx = struct
  type t = {
    solver : solver;
    sweep : sweep;
    grid : int;
    refine : int;
    budget : Budget.t option;
    deadline : float option;
    domains : int;
    cache : Cache.t option;
    identities : int;
  }

  let default_grid = 32
  let default_refine = 3
  let default_identities = 2

  let default =
    {
      solver = Auto;
      sweep = Grid;
      grid = default_grid;
      refine = default_refine;
      budget = None;
      deadline = None;
      domains = 1;
      cache = None;
      identities = default_identities;
    }

  (* The one sanctioned home of the optional-argument spray; everywhere
     else in lib/ the config-drift lint rule forbids these labels. *)
  let make ?(solver = default.solver) ?(sweep = default.sweep)
      ?(grid = default.grid) ?(refine = default.refine) ?budget ?deadline
      ?(domains = default.domains) ?cache
      ?(identities = default.identities) () =
    if identities < 2 then invalid_arg "Engine.Ctx.make: identities < 2";
    {
      solver;
      sweep;
      grid;
      refine;
      budget;
      deadline;
      domains;
      cache;
      identities;
    }

  let with_solver solver t = { t with solver }
  let with_sweep sweep t = { t with sweep }
  let with_grid grid t = { t with grid }
  let with_refine refine t = { t with refine }

  let with_identities identities t =
    if identities < 2 then
      invalid_arg "Engine.Ctx.with_identities: identities < 2";
    { t with identities }
  let with_budget b t = { t with budget = Some b }
  let without_budget t = { t with budget = None }
  let with_deadline d t = { t with deadline = Some d }
  let without_deadline t = { t with deadline = None }
  let with_domains domains t = { t with domains }
  let with_cache c t = { t with cache = Some c }
  let without_cache t = { t with cache = None }
  let get = function Some ctx -> ctx | None -> default

  let budget_or_unlimited t =
    match t.budget with Some b -> b | None -> Budget.unlimited

  (* Called at every request entry point (best_split / best_attack /
     decompose / each batch item): a [deadline] only starts counting
     when the request starts, not when the context is built, and an
     explicit budget always takes precedence. *)
  let arm t =
    match (t.budget, t.deadline) with
    | None, Some seconds -> { t with budget = Some (Budget.create ~seconds ()) }
    | _ -> t
end

let solver_name = function
  | FastChain -> "fast-chain"
  | Flow -> "flow"
  | Brute -> "brute"
  | Auto -> "auto"

let solver_of_name = function
  | "fast-chain" -> Some FastChain
  | "flow" -> Some Flow
  | "brute" -> Some Brute
  | "auto" -> Some Auto
  | _ -> None

let solver_names = [ "auto"; "brute"; "fast-chain"; "flow" ]

let sweep_name = function Grid -> "grid" | Exact -> "exact"

let sweep_of_name = function
  | "grid" -> Some Grid
  | "exact" -> Some Exact
  | _ -> None

let sweep_names () = [ "exact"; "grid" ]

(* ------------------------------------------------------------------ *)
(* Batch execution                                                     *)
(* ------------------------------------------------------------------ *)

let c_batch_runs = Obs.Counter.make ~subsystem:"engine" "batch_runs"
let c_batch_items = Obs.Counter.make ~subsystem:"engine" "batch_items"

let run_batch ?ctx ~f items =
  let ctx = Ctx.get ctx in
  Obs.Counter.incr c_batch_runs;
  Obs.Counter.add c_batch_items (Array.length items);
  (* parallelism lives at the batch level; each item runs sequentially
     on its worker domain but shares the context's cache *)
  let item_ctx = Ctx.with_domains 1 ctx in
  Parwork.map ~domains:ctx.Ctx.domains
    (fun item -> f (Ctx.arm item_ctx) item)
    items

let run_batch_r ?ctx ~f items =
  let ctx = Ctx.get ctx in
  Obs.Counter.incr c_batch_runs;
  Obs.Counter.add c_batch_items (Array.length items);
  let item_ctx = Ctx.with_domains 1 ctx in
  Parwork.map ~domains:ctx.Ctx.domains
    (fun item ->
      (* each item is armed separately — a [deadline] is per item, not
         per batch — and transiently-failed items are retried before
         being isolated as an Error row *)
      let ictx = Ctx.arm item_ctx in
      Ringshare_error.capture (fun () ->
          Retry.with_retry
            ~budget:(Ctx.budget_or_unlimited ictx)
            (fun () -> f ictx item)))
    items
