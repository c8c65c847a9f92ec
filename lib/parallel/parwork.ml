(* parwork IS the domains mechanism: its [?domains] parameters are the
   plumbing Engine.Ctx.domains drains into, not a configuration surface
   of their own — a recorded exemption, audited in LINT_ringshare.json *)
[@@@lint.allow "config-drift"]

let recommended_domains () = Stdlib.min 8 (Domain.recommended_domain_count ())

let c_maps = Obs.Counter.make ~subsystem:"parwork" "maps"
let c_tasks = Obs.Counter.make ~subsystem:"parwork" "tasks"
let c_domains = Obs.Counter.make ~subsystem:"parwork" "domains_spawned"
let c_exhausts = Obs.Counter.make ~subsystem:"parwork" "queue_exhausts"
let c_retries = Obs.Counter.make ~subsystem:"parwork" "retries"
let g_domains = Obs.Gauge.make ~subsystem:"parwork" "max_domains"

let fp_spawn = Failpoint.register "parwork.spawn"
let fp_task = Failpoint.register "parwork.task"

let map ?domains f xs =
  let domains =
    match domains with Some d -> Stdlib.max 1 d | None -> recommended_domains ()
  in
  let n = Array.length xs in
  Obs.Counter.incr c_maps;
  Obs.Counter.add c_tasks n;
  (* the task failpoint fires outside any per-task exception handling
     the caller installed inside [f], so an injected fault exercises the
     worker-death path, not the caller's isolation path; a task's spans
     nest under the submitter's open span on whichever domain runs it *)
  let parent = Obs.Span.path () in
  let run x =
    Failpoint.hit fp_task;
    Obs.Span.under parent (fun () -> f x)
  in
  if n = 0 then [||]
  else if domains = 1 || n = 1 then Array.map run xs
  else begin
    Failpoint.hit fp_spawn;
    Obs.Counter.add c_domains (domains - 1);
    Obs.Gauge.set_max g_domains domains;
    (* results buffer; each slot written exactly once by one worker *)
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let worker () =
      let continue_ = ref true in
      while !continue_ do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n || Atomic.get failure <> None then begin
          if i >= n then Obs.Counter.incr c_exhausts;
          continue_ := false
        end
        else
          match run xs.(i) with
          | y -> results.(i) <- Some y
          | exception e ->
              ignore (Atomic.compare_and_set failure None (Some e));
              continue_ := false
      done
    in
    let spawned =
      List.init (domains - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join spawned;
    (match Atomic.get failure with Some e -> raise e | None -> ());
    Array.map
      (function
        | Some y -> y
        | None -> invalid_arg "Parwork.map: missing result (worker died?)")
      results
  end

let map_list ?domains f xs =
  Array.to_list (map ?domains f (Array.of_list xs))

(* ------------------------------------------------------------------ *)
(* Fault-tolerant variants                                             *)
(* ------------------------------------------------------------------ *)

let map_result ?domains f xs =
  (* catching inside the task function means no worker ever aborts: a
     faulty element degrades to an Error slot, every other element is
     still computed *)
  map ?domains
    (fun x -> match f x with y -> Ok y | exception e -> Error e)
    xs

type 'b outcome = { index : int; result : ('b, exn) result; retried : bool }

type 'b report = {
  outcomes : 'b outcome array;
  succeeded : int;
  retried : int;
  failed : int;
}

let map_report ?domains ?(retry = true) f xs =
  let first = map_result ?domains f xs in
  let outcomes =
    Array.mapi
      (fun i r ->
        match r with
        | Ok _ -> { index = i; result = r; retried = false }
        | Error _ when retry ->
            (* sequential second chance: transient faults (allocation
               pressure in a domain, injected test faults) get one
               deterministic retry on the main domain *)
            Obs.Counter.incr c_retries;
            let result =
              match f xs.(i) with y -> Ok y | exception e -> Error e
            in
            { index = i; result; retried = true }
        | Error _ -> { index = i; result = r; retried = false })
      first
  in
  let count p = Array.fold_left (fun a o -> if p o then a + 1 else a) 0 outcomes in
  {
    outcomes;
    succeeded = count (fun o -> Result.is_ok o.result);
    retried = count (fun o -> o.retried);
    failed = count (fun o -> Result.is_error o.result);
  }

let successes r =
  Array.of_seq
    (Seq.filter_map
       (fun o -> match o.result with Ok y -> Some y | Error _ -> None)
       (Array.to_seq r.outcomes))

let failures r =
  Array.to_list r.outcomes
  |> List.filter_map (fun o ->
         match o.result with Ok _ -> None | Error e -> Some (o.index, e))

let pp_report fmt r =
  Format.fprintf fmt "%d ok / %d retried / %d failed"
    r.succeeded r.retried r.failed;
  List.iter
    (fun (i, e) ->
      Format.fprintf fmt "@.  task %d: %s" i (Printexc.to_string e))
    (failures r)
