(* perfbench: closed-loop workloads over the ringshare library.

   One process runs one workload with one client, in process, on one
   domain.  Set-up builds an instance pool from the seed and round-trips
   it through [Serial]; the run then answers requests back to back for
   the requested number of seconds, and checks every answer outside the
   timed region.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
     perfbench.exe --workload NAME --record-golden

   [--trace 0] reports the end-to-end metrics with tracing off.
   [--trace 1] turns on the Obs counters and spans and reports the
   per-layer metrics.  The last stdout line is one JSON object with the
   keys correct, attempted, failed and metrics.  [--record-golden]
   rewrites the expected answer digests in golden/.  README.md in this
   directory documents every workload and metric. *)

module Q = Rational

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* Linear interpolation between the closest ranks. *)
let quantile xs p =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let h = p *. float_of_int (n - 1) in
  let lo = int_of_float h in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* ------------------------------------------------------------------ *)
(* Per-layer timers                                                    *)
(* ------------------------------------------------------------------ *)

(* The benchmark's own calls into single layers' public functions,
   timed only while [on]: name -> (seconds, calls). *)
module Layer = struct
  let on = ref false
  let totals : (string, float * int) Hashtbl.t = Hashtbl.create 16

  let time name f =
    if not !on then f ()
    else begin
      let t0 = now () in
      let r = f () in
      let dt = now () -. t0 in
      let s, c =
        Option.value (Hashtbl.find_opt totals name) ~default:(0., 0)
      in
      Hashtbl.replace totals name (s +. dt, c + 1);
      r
    end

  let seconds name =
    Option.fold ~none:0. ~some:fst (Hashtbl.find_opt totals name)

  let calls name = Option.fold ~none:0 ~some:snd (Hashtbl.find_opt totals name)
end

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* A workload wraps the body of every request in [around]; the harness
   decides what that records (latency, and in traced runs counters). *)
type probe = { around : 'a. (unit -> 'a) -> 'a }

type verdict = {
  digest : string;  (** digest of the answer *)
  problem : string option;  (** why the answer is wrong, if it is *)
}

type prepared = {
  blocks : int array array;
      (** pool ids served together (a batch for grid-batch, one
          request otherwise); the run cycles through them *)
  serve : probe -> int array -> unit;
      (** answer every request of a block, keeping the answers *)
  verify : unit -> verdict array;
      (** untimed: check the block just served, by position *)
  layer_probe : unit -> unit;
      (** traced runs only, untimed: extra calls into single layers for
          the block just served *)
}

type workload = {
  name : string;
  why : string;
  setup : seed:int -> dir:string -> prepared;
      (** generate the pool from the seed and round-trip it through
          [Serial]; instance files, if any, go under [dir] *)
  replay_blocks : int;  (** blocks replayed twice by the counter check *)
  golden_blocks : int;  (** blocks of the golden seed checked each run *)
}

(* The weight distributions rotate because they change pair and event
   counts.  Bimodal comes first: its instances are the cheapest and the
   least varied, which keeps the set-up's warm-up request steady. *)
let dists =
  Weights.[| Bimodal (1, 100, 0.3); Uniform (1, 100); Powerlaw (1000, 2.0) |]

let item_seed ~seed i = Hashtbl.hash (seed, i)

(* The Serial round trip of the pool: each instance is serialised and
   parsed back, and must keep its content digest.  Requests use the
   parsed graphs. *)
let parsed_back g = function
  | Error e -> failwith (Ringshare_error.to_string e)
  | Ok g' ->
      if not (String.equal (Serial.digest g) (Serial.digest g')) then
        failwith "the Serial round trip changed an instance";
      g'

let round_trip graphs =
  Array.map
    (fun g ->
      let text = Serial.to_string g in
      parsed_back g (Layer.time "serial.load" (fun () -> Serial.of_string_r text)))
    graphs

(* The same round trip through instance files under [dir], read back by
   [Serial.load_r]; returns the file names. *)
let save_all ~dir graphs =
  Array.mapi
    (fun i g ->
      let file = Filename.concat dir (Printf.sprintf "%04d.graph" i) in
      let oc = open_out_bin file in
      output_string oc (Serial.to_string g);
      close_out oc;
      ignore (parsed_back g (Layer.time "serial.load" (fun () -> Serial.load_r file)));
      file)
    graphs

let md5_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let decomposition_digest (d : Decompose.t) =
  let b = Buffer.create 4096 in
  let add_set s =
    Vset.iter
      (fun v ->
        Buffer.add_string b (string_of_int v);
        Buffer.add_char b ' ')
      s
  in
  List.iter
    (fun (p : Decompose.pair) ->
      add_set p.b;
      Buffer.add_char b '|';
      add_set p.c;
      Buffer.add_string b (Q.to_string p.alpha);
      Buffer.add_char b '\n')
    d;
  Digest.to_hex (Digest.string (Buffer.contents b))

let one_per_block pool = Array.init pool (fun i -> [| i |])

(* Keeps the answers of the block just served, paired with their ids. *)
let serve_each last answer (p : probe) ids =
  last := Array.map (fun i -> (i, p.around (fun () -> answer i))) ids

let exact_sweep =
  let pool = 640 in
  let setup ~seed ~dir:_ =
    let graphs =
      Array.init pool (fun i ->
          Instances.ring ~seed:(item_seed ~seed i) ~n:10 dists.(i mod 3))
      |> round_trip
    in
    let ctx = Engine.Ctx.make ~sweep:Engine.Exact () in
    let last = ref [||] in
    let verify () =
      Array.map
        (fun (i, (a : Incentive.exact_attack)) ->
          let w = a.witness in
          let digest =
            md5_lines
              [ string_of_int w.v; Q.to_string w.w1; Q.to_string w.utility;
                Q.to_string w.honest; Qx.to_string a.w1_exact;
                Qx.to_string a.utility_exact; Qx.to_string a.ratio_exact;
                string_of_int a.pieces; string_of_int a.events ]
          in
          let problem =
            if
              Qx.compare a.ratio_exact (Qx.of_int 1) < 0
              || Qx.compare a.ratio_exact (Qx.of_int 2) > 0
            then Some ("ratio_exact outside [1, 2]: " ^ Qx.to_string a.ratio_exact)
            else if
              not
                (Q.equal
                   (Sybil.split_utility graphs.(i) ~v:w.v ~w1:w.w1)
                   w.utility)
            then Some "the witness split does not re-evaluate to its utility"
            else None
          in
          { digest; problem })
        !last
    in
    let layer_probe () =
      Array.iter
        (fun (i, _) ->
          let g = graphs.(i) in
          for v = 0 to Graph.n g - 1 do
            (* the same request-local cache best_split_exact sets up *)
            let ctx =
              Engine.Ctx.with_cache (Engine.Cache.create ~capacity:128 ()) ctx
            in
            Layer.time "breakpoints.exact_split_pieces" (fun () ->
                ignore (Breakpoints.exact_split_pieces ~ctx g ~v))
          done)
        !last
    in
    {
      blocks = one_per_block pool;
      serve = serve_each last (fun i -> Incentive.best_attack_exact ~ctx graphs.(i));
      verify;
      layer_probe;
    }
  in
  {
    name = "exact-sweep";
    why = "certified best_attack_exact on n=10 rings, no shared cache";
    setup;
    replay_blocks = 24;
    golden_blocks = 12;
  }

let grid_batch =
  let sizes = [| 6; 8; 10; 12 |] and uniques = 12 and repeats = 8 in
  let nblocks = 40 in
  let setup ~seed ~dir =
    let files =
      Array.init (nblocks * uniques) (fun u ->
          Instances.ring ~seed:(item_seed ~seed u) ~n:sizes.(u mod 4)
            dists.(u / 4 mod 3))
      |> save_all ~dir
    in
    (* A batch lists [uniques] fresh files; [repeats] of them, chosen
       from the seed, are followed by a repeat of one of the last three
       files listed, which is likely still in the shared cache. *)
    let block b =
      let rng = Random.State.make [| seed; b |] in
      let order = Array.init uniques Fun.id in
      for j = uniques - 1 downto 1 do
        let k = Random.State.int rng (j + 1) in
        let t = order.(j) in
        order.(j) <- order.(k);
        order.(k) <- t
      done;
      let repeated = Array.make uniques false in
      Array.iteri (fun r j -> if r < repeats then repeated.(j) <- true) order;
      let seq = ref [] in
      for j = 0 to uniques - 1 do
        seq := ((b * uniques) + j) :: !seq;
        if repeated.(j) then
          seq :=
            List.nth !seq (Random.State.int rng (min 3 (List.length !seq)))
            :: !seq
      done;
      Array.of_list (List.rev !seq)
    in
    let last = ref [||] in
    let serve (p : probe) ids =
      (* one CLI [batch] invocation: a fresh shared 4096-entry cache *)
      let ctx =
        Engine.Ctx.make ~cache:(Engine.Cache.create ~capacity:4096 ()) ()
      in
      last :=
        Engine.run_batch_r ~ctx
          ~f:(fun ctx file ->
            p.around (fun () ->
                match Layer.time "serial.load" (fun () -> Serial.load_r file) with
                | Error e -> Ringshare_error.error e
                | Ok g -> (Graph.n g, Incentive.best_attack ~ctx g)))
          (Array.map (fun i -> files.(i)) ids)
    in
    let verify () =
      Array.map
        (function
          | Error e ->
              { digest = ""; problem = Some (Ringshare_error.to_string e) }
          | Ok (n, (a : Incentive.attack)) ->
              let digest =
                md5_lines
                  [ string_of_int n; string_of_int a.v; Q.to_string a.w1;
                    Q.to_string a.utility; Q.to_string a.honest;
                    Q.to_string a.ratio ]
              in
              let problem =
                if Q.compare a.ratio Q.one < 0 || Q.compare a.ratio Q.two > 0
                then Some ("ratio outside [1, 2]: " ^ Q.to_string a.ratio)
                else None
              in
              { digest; problem })
        !last
    in
    {
      blocks = Array.init nblocks block;
      serve;
      verify;
      layer_probe = ignore;
    }
  in
  {
    name = "grid-batch";
    why = "CLI batch path: Serial.load_r + grid best_attack, shared cache";
    setup;
    replay_blocks = 1;
    golden_blocks = 1;
  }

(* Rings and paths alternate; the distributions rotate over pairs. *)
let chain_pool ~seed ~n pool =
  Array.init pool (fun i ->
      let make = if i mod 2 = 0 then Instances.ring else Instances.path in
      make ~seed:(item_seed ~seed i) ~n dists.(i / 2 mod 3))

let decompose_10k =
  let pool = 24 and validated = 2 in
  let setup ~seed ~dir:_ =
    let graphs =
      chain_pool ~seed ~n:10_000 pool |> round_trip
    in
    let last = ref [||] in
    (* validate is quadratic: check a fixed ring and path once per run *)
    let checked = Array.make validated false in
    let verify () =
      Array.map
        (fun (i, d) ->
          let problem =
            if i < validated && not checked.(i) then begin
              checked.(i) <- true;
              Result.fold ~ok:(fun () -> None) ~error:Option.some
                (Decompose.validate graphs.(i) d)
            end
            else None
          in
          { digest = decomposition_digest d; problem })
        !last
    in
    {
      blocks = one_per_block pool;
      serve = serve_each last (fun i -> Decompose.compute graphs.(i));
      verify;
      layer_probe = ignore;
    }
  in
  {
    name = "decompose-10k";
    why = "Decompose.compute on n=10^4 rings and paths";
    setup;
    replay_blocks = 6;
    golden_blocks = 6;
  }

(* The body of [ringshare decompose], printing to a buffer. *)
let report g =
  let buf = Buffer.create (1 lsl 16) in
  let ppf = Format.formatter_of_buffer buf in
  let d = Decompose.compute g in
  Format.fprintf ppf "%a@." Graph.pp g;
  Format.fprintf ppf "bottleneck decomposition:@.%a@." Decompose.pp d;
  let cls =
    Layer.time "classes.of_decomposition" (fun () ->
        Classes.of_decomposition g d)
  in
  let us =
    Layer.time "utility.of_decomposition" (fun () ->
        Utility.of_decomposition g d)
  in
  Format.fprintf ppf "vertex  class  alpha      utility@.";
  for v = 0 to Graph.n g - 1 do
    Format.fprintf ppf "%-7d %-6s %-10s %s@." v
      (Format.asprintf "%a" Classes.pp_cls cls.(v))
      (Q.to_string (Decompose.alpha_of d v))
      (Q.to_string us.(v))
  done;
  let valid =
    Layer.time "decompose.validate" (fun () -> Decompose.validate g d)
  in
  (match valid with
  | Ok () -> Format.fprintf ppf "Proposition 3 invariants: OK@."
  | Error m -> Format.fprintf ppf "Proposition 3 invariants: VIOLATED (%s)@." m);
  (Buffer.contents buf, valid)

let decompose_report =
  let pool = 12 in
  let setup ~seed ~dir:_ =
    let graphs =
      Array.init pool (fun i ->
          Instances.ring ~seed:(item_seed ~seed i) ~n:3000 dists.(i mod 3))
      |> round_trip
    in
    let last = ref [||] in
    let verify () =
      Array.map
        (fun (_, (text, valid)) ->
          {
            digest = Digest.to_hex (Digest.string text);
            problem = Result.fold ~ok:(fun () -> None) ~error:Option.some valid;
          })
        !last
    in
    {
      blocks = one_per_block pool;
      serve = serve_each last (fun i -> report graphs.(i));
      verify;
      layer_probe = ignore;
    }
  in
  {
    name = "decompose-report";
    why = "ringshare decompose body on n=3000 rings, output to a buffer";
    setup;
    replay_blocks = 3;
    golden_blocks = 3;
  }

let workloads = [ exact_sweep; grid_batch; decompose_10k; decompose_report ]

(* ------------------------------------------------------------------ *)
(* Machine-speed calibration                                           *)
(* ------------------------------------------------------------------ *)

(* A shared host's speed drifts by tens of percent within seconds, and
   it drifts alike for any CPU-bound code.  So the harness times a fixed
   calibration sample between requests (balanced-tree inserts, a fold
   and a list sort; no ringshare code) and reports every time scaled to
   the speed at which one sample takes [reference] seconds. *)
module Calib = struct
  module IM = Map.Make (Int)

  let unit () =
    let m = ref IM.empty in
    for i = 0 to 4000 do
      m := IM.add ((i * 7919) land 8191) i !m
    done;
    IM.fold (fun k v acc -> (k lxor v) :: acc) !m []
    |> List.sort compare |> List.fold_left ( + ) 0

  let reference = 0.0036

  let sample () =
    let t0 = now () in
    for _ = 1 to 3 do
      ignore (Sys.opaque_identity (unit ()))
    done;
    now () -. t0

  (* above 1 when the host runs slower than the reference speed *)
  let factor samples = median samples /. reference
end

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)
(* ------------------------------------------------------------------ *)

let plain = { around = (fun f -> f ()) }

(* Raw request latencies with a calibration sample after each. *)
type timeline = {
  mutable lat : float list;  (** raw seconds, newest first *)
  mutable count : int;
  mutable busy : float;  (** raw seconds of all requests *)
  mutable marks : (int * float) list;
      (** (requests before it, seconds), newest first *)
}

let new_timeline () =
  { lat = []; count = 0; busy = 0.; marks = [ (0, Calib.sample ()) ] }

let calibrate tl = tl.marks <- (tl.count, Calib.sample ()) :: tl.marks

let timed tl =
  {
    around =
      (fun f ->
        let t0 = now () in
        Fun.protect
          ~finally:(fun () ->
            let dt = now () -. t0 in
            tl.lat <- dt :: tl.lat;
            tl.count <- tl.count + 1;
            tl.busy <- tl.busy +. dt;
            calibrate tl)
          f);
  }

(* Each latency scaled by the speed factor of the seven calibration
   samples nearest to it. *)
let normalised tl =
  let marks = Array.of_list (List.rev tl.marks) in
  let m = Array.length marks and next = ref 0 in
  Array.mapi
    (fun i x ->
      while !next < m && fst marks.(!next) <= i do
        incr next
      done;
      let lo = max 0 (!next - 4) and hi = min m (!next + 3) in
      x /. Calib.factor (Array.map snd (Array.sub marks lo (hi - lo))))
    (Array.of_list (List.rev tl.lat))

(* Failures and answer digests: every answer to the same pool id must
   have the same digest. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
  first : (int, string) Hashtbl.t;
}

let new_tally () =
  { attempted = 0; failed = 0; notes = []; first = Hashtbl.create 64 }

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.notes < 5 then t.notes <- msg :: t.notes

(* Serves one block; returns how it ended and the seconds it took. *)
let serve_block prep probe ids =
  let t0 = now () in
  let outcome =
    match prep.serve probe ids with
    | () -> Ok ()
    | exception e -> Error (Printexc.to_string e)
  in
  (outcome, now () -. t0)

(* Checks the block just served; never timed. *)
let check_block t prep ids outcome =
  t.attempted <- t.attempted + Array.length ids;
  match outcome with
  | Error m ->
      Array.iter (fun i -> fail t (Printf.sprintf "request %d: %s" i m)) ids
  | Ok () ->
      Array.iteri
        (fun k v ->
          let i = ids.(k) in
          match v.problem with
          | Some m -> fail t (Printf.sprintf "request %d: %s" i m)
          | None -> (
              match Hashtbl.find_opt t.first i with
              | None -> Hashtbl.add t.first i v.digest
              | Some d when String.equal d v.digest -> ()
              | Some _ ->
                  fail t
                    (Printf.sprintf
                       "request %d: answer differs from an earlier answer" i)))
        (prep.verify ())

let serve_and_check t prep probe ids =
  let outcome, dt = serve_block prep probe ids in
  check_block t prep ids outcome;
  dt

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let work_root = Filename.concat "perfbench" ".work"

let make_workdir name =
  if not (Sys.file_exists work_root) then Sys.mkdir work_root 0o755;
  let dir =
    Filename.concat work_root (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  remove_tree dir;
  Sys.mkdir dir 0o755;
  at_exit (fun () ->
      remove_tree dir;
      try Sys.rmdir work_root with Sys_error _ -> ());
  dir

let setup_reps = 3

(* Set-up: pool generation, the Serial round trip, and one untimed
   warm-up request.  Returns the raw and the scaled seconds. *)
let setup w ~seed ~dir =
  let before = [ Calib.sample (); Calib.sample () ] in
  let t0 = now () in
  let prep = w.setup ~seed ~dir in
  (match prep.serve plain [| prep.blocks.(0).(0) |] with
  | () -> ()
  | exception e -> failwith ("warm-up request failed: " ^ Printexc.to_string e));
  let dt = now () -. t0 in
  let after = [ Calib.sample (); Calib.sample () ] in
  (prep, dt, dt /. Calib.factor (Array.of_list (before @ after)))

(* The untraced closed loop: blocks back to back until the requests
   have run [seconds]. *)
let measure t prep ~seconds =
  let tl = new_timeline () in
  let probe = timed tl and b = ref 0 in
  while tl.busy < seconds do
    ignore
      (serve_and_check t prep probe
         prep.blocks.(!b mod Array.length prep.blocks));
    incr b
  done;
  tl

let golden_seed = 1

let golden_file w =
  Filename.concat "perfbench" (Filename.concat "golden" (w.name ^ ".txt"))

let read_lines file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])

(* Answers the first blocks of the golden seed and compares their
   digests with the ones recorded in golden/ (or records them). *)
let golden t w ~dir ~record =
  let prep = w.setup ~seed:golden_seed ~dir in
  let own = new_tally () in
  for b = 0 to w.golden_blocks - 1 do
    ignore (serve_and_check own prep plain prep.blocks.(b))
  done;
  t.attempted <- t.attempted + own.attempted;
  t.failed <- t.failed + own.failed;
  t.notes <- own.notes @ t.notes;
  let lines =
    Hashtbl.fold (fun i d acc -> Printf.sprintf "%d %s" i d :: acc) own.first []
    |> List.sort compare
  in
  let file = golden_file w in
  if record then begin
    let oc = open_out file in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc
  end
  else
    match read_lines file with
    | exception Sys_error m -> fail t m
    | expected ->
        List.iter
          (fun l ->
            if not (List.mem l expected) then
              fail t ("golden answer mismatch: " ^ l))
          lines;
        if List.length expected <> List.length lines then
          fail t "golden answer count mismatch"

let peak_rss_mb () =
  let vm_hwm l = Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id in
  match List.find_map vm_hwm (read_lines "/proc/self/status") with
  | Some kb -> float_of_int kb /. 1024.
  | None -> nan

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let set_tracing b =
  Obs.set_metrics b;
  Obs.set_spans b;
  Layer.on := b

let nonzero_counters later earlier =
  List.filter
    (fun (e : Obs.entry) -> e.value <> 0)
    (Obs.counters (Obs.diff later earlier))

(* Per-request counter deltas, newest first. *)
let counting (out : Obs.entry list list ref) =
  {
    around =
      (fun f ->
        let s0 = Obs.snapshot () in
        Fun.protect
          ~finally:(fun () ->
            out := nonzero_counters (Obs.snapshot ()) s0 :: !out)
          f);
  }

(* Replays the first blocks twice from the same state, traced.  Returns
   the per-request counters and the per-block counters (which also hold
   the work a batch does around its items) of the first replay, and
   whether the second repeated both exactly. *)
let replay_counts t w prep =
  let replay () =
    let requests = ref [] and blocks = ref [] in
    for b = 0 to w.replay_blocks - 1 do
      let ids = prep.blocks.(b) in
      set_tracing true;
      let s0 = Obs.snapshot () in
      let outcome, _ = serve_block prep (counting requests) ids in
      blocks := nonzero_counters (Obs.snapshot ()) s0 :: !blocks;
      set_tracing false;
      check_block t prep ids outcome
    done;
    (List.rev !requests, List.rev !blocks)
  in
  let first = replay () in
  (first, first = replay ())

type traced_pass = {
  requests : int;
  busy_untraced : float;
  busy_traced : float;
  speed : float;  (** calibration factor over the pass *)
  spans : (string * float) list;  (** span path -> seconds *)
  layers : (string * float) list;  (** layer timer -> seconds *)
  minor_words : float;
  major_collections : int;
}

(* Serves each block once untraced and once traced, alternating which
   goes first, until the two together have run [seconds].  Per-layer
   times come from the traced half only. *)
let traced_measure t prep ~seconds =
  let span_totals () =
    List.map
      (fun (r : Obs.Span.record) -> (r.path, float_of_int r.total_ns *. 1e-9))
      (Obs.Span.records ())
  in
  let layer_totals () =
    Hashtbl.fold (fun k (s, _) acc -> (k, s) :: acc) Layer.totals []
  in
  let delta before after =
    List.map
      (fun (k, v) ->
        (k, v -. Option.value (List.assoc_opt k before) ~default:0.))
      after
  in
  let spans0 = span_totals () and layers0 = layer_totals () in
  let minor = ref 0. and major = ref 0 and samples = ref [ Calib.sample () ] in
  let traced =
    {
      around =
        (fun f ->
          let s0 = Obs.snapshot () in
          let g0 = Gc.quick_stat () in
          Fun.protect
            ~finally:(fun () ->
              let g1 = Gc.quick_stat () in
              ignore (Obs.diff (Obs.snapshot ()) s0);
              minor := !minor +. (g1.minor_words -. g0.minor_words);
              major := !major + (g1.major_collections - g0.major_collections))
            f);
    }
  in
  let bu = ref 0. and bt = ref 0. and served = ref 0 and b = ref 0 in
  while !bu +. !bt < seconds do
    let ids = prep.blocks.(!b mod Array.length prep.blocks) in
    let run_untraced () = bu := !bu +. serve_and_check t prep plain ids in
    let run_traced () =
      set_tracing true;
      let outcome, dt = serve_block prep traced ids in
      set_tracing false;
      bt := !bt +. dt;
      check_block t prep ids outcome;
      (* the benchmark's own layer calls, outside the request and with
         the program's counters and spans off *)
      Layer.on := true;
      prep.layer_probe ();
      Layer.on := false
    in
    if !b mod 2 = 0 then begin
      run_untraced ();
      run_traced ()
    end
    else begin
      run_traced ();
      run_untraced ()
    end;
    samples := Calib.sample () :: !samples;
    served := !served + Array.length ids;
    incr b
  done;
  {
    requests = !served;
    busy_untraced = !bu;
    busy_traced = !bt;
    speed = Calib.factor (Array.of_list !samples);
    spans = delta spans0 (span_totals ());
    layers = delta layers0 (layer_totals ());
    minor_words = !minor;
    major_collections = !major;
  }

(* Seconds under spans named [name], not counting a [name] span nested
   in another. *)
let span_seconds spans name =
  List.fold_left
    (fun acc (path, s) ->
      match List.rev (String.split_on_char '/' path) with
      | last :: ancestors
        when String.equal last name
             && not (List.exists (String.equal name) ancestors) ->
          acc +. s
      | _ -> acc)
    0. spans

(* (name, value, unit) for every per-layer metric.  Counts are means
   per request over the replayed requests; times are per request of the
   traced pass, scaled by its calibration factor. *)
let per_layer_metrics t w prep ~seconds =
  let (requests, blocks), repeats = replay_counts t w prep in
  if not repeats then
    fail t "counters differ between two replays of the same requests";
  let total sub name =
    List.fold_left
      (List.fold_left (fun acc (e : Obs.entry) ->
           if String.equal e.subsystem sub && String.equal e.name name then
             acc + e.value
           else acc))
      0 blocks
  in
  let count sub name =
    float_of_int (total sub name) /. float_of_int (List.length requests)
  in
  let ratio sub hits lookups =
    match total sub lookups with
    | 0 -> 0.
    | l -> float_of_int (total sub hits) /. float_of_int l
  in
  let p = traced_measure t prep ~seconds in
  let n = float_of_int p.requests in
  let ms s = 1000. *. s /. p.speed /. n in
  let span name = ms (span_seconds p.spans name) in
  let layer name =
    ms (Option.value (List.assoc_opt name p.layers) ~default:0.)
  in
  let serial_load_ms =
    match Layer.calls "serial.load" with
    | 0 -> 0.
    | c -> 1000. *. Layer.seconds "serial.load" /. p.speed /. float_of_int c
  in
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  let per_req = "count/req" in
  [
    ("incentive.best_attack_exact_ms", span "best_attack_exact", "ms");
    ("incentive.exact_evals", count "incentive" "exact_evals", per_req);
    ("incentive.exact_pieces", count "incentive" "exact_pieces", per_req);
    ("incentive.exact_events", count "incentive" "exact_events", per_req);
    ("incentive.best_split_ms", span "best_split", "ms");
    ( "incentive.sweep_points_deduped",
      count "incentive" "sweep_points_deduped", per_req );
    ( "incentive.memo_hit_ratio",
      ratio "incentive" "memo_hits" "memo_lookups", "ratio" );
    ( "breakpoints.exact_split_pieces_ms",
      layer "breakpoints.exact_split_pieces", "ms" );
    ("decompose.ms", span "decompose", "ms");
    ("decompose.computes", count "decomposition" "computes", per_req);
    ("decompose.pairs", count "decomposition" "pairs", per_req);
    ( "chain_decompose.component_solves",
      count "decomposition" "chain_driver_component_solves", per_req );
    ( "chain_decompose.int_dp_solves",
      count "decomposition" "chain_driver_int_dp_solves", per_req );
    ( "chain_decompose.q_fallback_solves",
      count "decomposition" "chain_driver_q_fallback_solves", per_req );
    ( "dinkelbach.iterations",
      count "decomposition" "dinkelbach_iterations", per_req );
    ( "chain_fast.oracle_calls",
      count "decomposition" "fastchain_oracle_calls", per_req );
    ("engine.cache_lookups", count "engine" "cache_lookups", per_req);
    ("engine.cache_hits", count "engine" "cache_hits", per_req);
    ( "engine.cache_hit_ratio",
      ratio "engine" "cache_hits" "cache_lookups", "ratio" );
    ("engine.cache_evictions", count "engine" "cache_evictions", per_req);
    ("serial.load_ms", serial_load_ms, "ms");
    ("utility.of_decomposition_ms", layer "utility.of_decomposition", "ms");
    ("classes.of_decomposition_ms", layer "classes.of_decomposition", "ms");
    ("decompose.validate_ms", layer "decompose.validate", "ms");
    ("budget.ticks", count "budget" "ticks", per_req);
    ("retry.retries", count "retry" "retries", per_req);
    ("engine.batch_items", count "engine" "batch_items", per_req);
    ("gc.minor_words", p.minor_words /. n, "words/req");
    ("gc.major_collections", float_of_int p.major_collections /. n, per_req);
    ("gc.top_heap_mb", top_heap_mb, "MB");
    ( "trace.overhead_pct",
      100. *. ((p.busy_traced /. p.busy_untraced) -. 1.), "%" );
  ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let json_number t v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else begin
    fail t "a metric is not a finite number";
    "0"
  end

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 0. in
  let trace = ref (-1) and record = ref false in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are made from");
      ("--seconds", Arg.Set_float seconds, "S seconds of requests to measure");
      ( "--trace",
        Arg.Set_int trace,
        "0|1 end-to-end (0) or per-layer (1) metrics" );
      ("--record-golden", Arg.Set record, " rewrite golden/NAME.txt and exit");
    ]
  in
  let usage =
    "perfbench --workload NAME --seed N --seconds S --trace 0|1\nworkloads: "
    ^ String.concat ", " (List.map (fun w -> w.name) workloads)
  in
  let die msg =
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  (try
     Arg.parse_argv Sys.argv specs
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with Arg.Bad m | Arg.Help m ->
     prerr_string m;
     exit 2);
  let w =
    match List.find_opt (fun w -> String.equal w.name !workload) workloads with
    | Some w -> w
    | None -> die ("unknown workload " ^ !workload)
  in
  if not (Sys.file_exists "perfbench" && Sys.is_directory "perfbench") then
    die "run from the root of the repository";
  (* so that an interrupted run still removes its instance files *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let dir = make_workdir w.name in
  if !record then begin
    let t = new_tally () in
    golden t w ~dir ~record:true;
    Printf.printf "%s: recorded %s (%d requests, %d failed)\n" w.name
      (golden_file w) t.attempted t.failed;
    exit (if t.failed = 0 then 0 else 1)
  end;
  if !seconds <= 0. then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let traced = !trace = 1 in
  Printf.printf "perfbench %s: %s\nseed %d, %g s, trace %d\n%!" w.name w.why
    !seed !seconds !trace;
  Layer.on := traced;
  (* warm the calibration code before its first timed sample *)
  ignore (Calib.sample ());
  let setups = ref [] and prep = ref None in
  for _ = 1 to if traced then 1 else setup_reps do
    (* each set-up starts from an empty heap, not the last one's pool *)
    prep := None;
    Gc.full_major ();
    let p, raw, scaled = setup w ~seed:!seed ~dir in
    prep := Some p;
    setups := (raw, scaled) :: !setups
  done;
  let prep = Option.get !prep in
  Layer.on := false;
  Gc.compact ();
  let t = new_tally () in
  let metrics =
    if traced then per_layer_metrics t w prep ~seconds:!seconds
    else begin
      let tl = measure t prep ~seconds:!seconds in
      let rss = peak_rss_mb () in
      let lat = normalised tl in
      let n = Array.length lat in
      let speed = Calib.factor (Array.of_list (List.map snd tl.marks)) in
      Printf.printf
        "%d requests timed, %d of them beyond p90; raw %.4f requests/s at \
         speed factor %.4f; set-up %d times, raw median %.4f s\n"
        n
        (n - int_of_float (Float.ceil (0.9 *. float_of_int n)))
        (float_of_int n /. tl.busy) speed setup_reps
        (median (Array.of_list (List.map fst !setups)));
      [
        ("throughput_rps", float_of_int n /. Array.fold_left ( +. ) 0. lat, "1/s");
        ("latency_p50_ms", 1000. *. median lat, "ms");
        ("latency_p90_ms", 1000. *. quantile lat 0.9, "ms");
        ("setup_s", median (Array.of_list (List.map snd !setups)), "s");
        ("peak_rss_mb", rss, "MB");
      ]
    end
  in
  golden t w ~dir ~record:false;
  List.iter (fun m -> prerr_endline ("perfbench: " ^ m)) (List.rev t.notes);
  let metrics =
    List.map (fun (name, v, u) -> (name, json_number t v, u)) metrics
  in
  List.iter (fun (name, v, u) -> Printf.printf "%-36s %s %s\n" name v u) metrics;
  Printf.printf "%-36s %s ratio (%d failed of %d attempted)\n" "error_rate"
    (json_number t (float_of_int t.failed /. float_of_int (max 1 t.attempted)))
    t.failed t.attempted;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (t.failed = 0) t.attempted t.failed
    (String.concat ", "
       (List.map
          (fun (name, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name v u)
          metrics))
