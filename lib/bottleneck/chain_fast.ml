module Q = Rational

(* ------------------------------------------------------------------ *)
(* Components of the masked subgraph                                   *)
(* ------------------------------------------------------------------ *)

let masked_neighbors g mask v =
  Array.to_list (Graph.neighbors g v) |> List.filter (fun u -> Vset.mem u mask)

let supports g ~mask =
  Vset.for_all (fun v -> List.length (masked_neighbors g mask v) <= 2) mask

(* A component of the masked subgraph, with its vertices in walk order. *)
type component = { verts : int array; cycle : bool }

let components g ~mask =
  let visited = Tables.Itbl.create 16 in
  let comps = ref [] in
  Vset.iter
    (fun v0 ->
      if not (Tables.Itbl.mem visited v0) then begin
        (* Collect the component of v0. *)
        let members = ref [] in
        let rec collect v =
          if not (Tables.Itbl.mem visited v) then begin
            Tables.Itbl.add visited v ();
            members := v :: !members;
            List.iter collect (masked_neighbors g mask v)
          end
        in
        collect v0;
        let members = !members in
        let degree v = List.length (masked_neighbors g mask v) in
        let endpoint = List.find_opt (fun v -> degree v <= 1) members in
        match endpoint with
        | Some e ->
            (* Path: walk from the endpoint. *)
            let rec walk prev cur acc =
              let acc = cur :: acc in
              match List.filter (fun u -> u <> prev) (masked_neighbors g mask cur) with
              | [] -> List.rev acc
              | [ next ] -> walk cur next acc
              | _ -> assert false
            in
            comps :=
              { verts = Array.of_list (walk (-1) e []); cycle = false }
              :: !comps
        | None ->
            (* Cycle: walk from any vertex. *)
            let start = List.hd members in
            let rec walk prev cur acc =
              if cur = start && prev <> -1 then List.rev acc
              else
                let acc = cur :: acc in
                match
                  List.filter (fun u -> u <> prev) (masked_neighbors g mask cur)
                with
                | next :: _ -> walk cur next acc
                | [] -> assert false
            in
            comps :=
              { verts = Array.of_list (walk (-1) start []); cycle = true }
              :: !comps
      end)
    mask;
  !comps

(* ------------------------------------------------------------------ *)
(* The path/cycle DP over a cost algebra                               *)
(* ------------------------------------------------------------------ *)

module type COST = sig
  type t

  val zero : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val better : t option -> t option -> t option
end

(* State encoding: index = 2*s + counted, where s is the vertex's
   S-membership and counted whether its Γ(S) charge has already been
   paid by its left neighbour (counted_i = s_{i-1}). *)
let state s counted = (if s then 2 else 0) + if counted then 1 else 0

module Make (C : COST) = struct
  (* F.(i).(st): best cost of choosing s_0..s_i, ending in state st,
     with every charge decided by those choices paid.  The transition
     into position i charges gam(i-1) when s_i picks up an uncounted
     neighbour, gam(i) when s_{i-1} was selected, and -sch(i) when s_i
     is selected. *)
  let forward f ~gam ~sch k =
    for i = 1 to k - 1 do
      let prev = f.(i - 1) and row = f.(i) in
      Array.fill row 0 4 None;
      for st = 0 to 3 do
        match prev.(st) with
        | None -> ()
        | Some q ->
            let s_prev = st >= 2 and counted_prev = st land 1 = 1 in
            let q0 = if s_prev then C.add q (gam i) else q in
            let st0 = state false s_prev in
            row.(st0) <- C.better row.(st0) (Some q0);
            let q1 = if counted_prev then q else C.add q (gam (i - 1)) in
            let q1 = if s_prev then C.add q1 (gam i) else q1 in
            let q1 = C.sub q1 (sch i) in
            let st1 = state true s_prev in
            row.(st1) <- C.better row.(st1) (Some q1)
      done
    done

  (* B.(i).(st): best cost of the transitions into positions i+1..k-1
     given that position i ends in state st.  The suffix depends on the
     prefix only through that state, so F.(i).(st) + B.(i).(st) is the
     best total over the assignments passing through (i, st). *)
  let backward b ~gam ~sch k =
    for i = k - 2 downto 0 do
      let next = b.(i + 1) and row = b.(i) in
      for st = 0 to 3 do
        let s_i = st >= 2 and counted_i = st land 1 = 1 in
        row.(st) <- None;
        (match next.(state false s_i) with
        | None -> ()
        | Some q ->
            let q = if s_i then C.add q (gam (i + 1)) else q in
            row.(st) <- C.better row.(st) (Some q));
        match next.(state true s_i) with
        | None -> ()
        | Some q ->
            let q = if counted_i then q else C.add q (gam i) in
            let q = if s_i then C.add q (gam (i + 1)) else q in
            let q = C.sub q (sch (i + 1)) in
            row.(st) <- C.better row.(st) (Some q)
      done
    done

  (* Minimum with s_u forced into S: the two-candidate combine over the
     Γ-charge flag of u. *)
  let forced_at f b u =
    let combine c =
      match (f.(u).(state true c), b.(u).(state true c)) with
      | Some x, Some y -> Some (C.add x y)
      | _ -> None
    in
    C.better (combine false) (combine true)

  let get = function
    | Some x -> x
    | None -> Ringshare_error.(error (Infeasible_dp "Chain_fast: empty table"))

  let solve ~cycle ~gam ~sch k =
    let f = Array.make_matrix k 4 None and b = Array.make_matrix k 4 None in
    if not cycle then begin
      f.(0).(state false false) <- Some C.zero;
      f.(0).(state true false) <- Some (C.sub C.zero (sch 0));
      Array.fill b.(k - 1) 0 4 (Some C.zero);
      forward f ~gam ~sch k;
      backward b ~gam ~sch k;
      (get (Array.fold_left C.better None f.(k - 1)), Array.init k (forced_at f b))
    end
    else begin
      (* Cut between positions k-1 and 0 and condition on
         (a, bb) = (s_0, s_{k-1}).  The wrap edge charges v_0 when bb,
         paid up front as v_0's counted flag, and v_{k-1} when a, paid
         at the end unless s_{k-2} already did. *)
      let best = ref None and forced = Array.make k None in
      List.iter
        (fun a ->
          List.iter
            (fun bb ->
              Array.fill f.(0) 0 4 None;
              let c0 = if bb then gam 0 else C.zero in
              f.(0).(state a bb) <- Some (if a then C.sub c0 (sch 0) else c0);
              for st = 0 to 3 do
                b.(k - 1).(st) <-
                  (if (st >= 2) <> bb then None
                   else if a && st land 1 = 0 then Some (gam (k - 1))
                   else Some C.zero)
              done;
              forward f ~gam ~sch k;
              backward b ~gam ~sch k;
              for st = 0 to 3 do
                match (f.(k - 1).(st), b.(k - 1).(st)) with
                | Some x, Some y -> best := C.better !best (Some (C.add x y))
                | _ -> ()
              done;
              for u = 0 to k - 1 do
                forced.(u) <- C.better forced.(u) (forced_at f b u)
              done)
            [ false; true ])
        [ false; true ];
      (get !best, forced)
    end
end

(* ------------------------------------------------------------------ *)
(* Exact instance at integer scale, and the oracle                     *)
(* ------------------------------------------------------------------ *)

(* Costs at scale q·D (see the interface): a positive scale keeps every
   comparison of the rational costs, and no cell pays for a gcd. *)
module Scaled = Make (struct
  type t = Bigint.t

  let zero = Bigint.zero
  let add = Bigint.add
  let sub = Bigint.sub

  let better cur cand =
    match (cur, cand) with
    | None, x | x, None -> x
    | Some c, Some d -> if Bigint.compare d c < 0 then cand else cur
end)

let scale ws =
  let d =
    Array.fold_left
      (fun l w ->
        if Q.is_inf w then invalid_arg "Chain_fast: infinite weight";
        let dw = Q.den w in
        Bigint.mul (Bigint.div l (Bigint.gcd l dw)) dw)
      Bigint.one ws
  in
  (d, Array.map (fun w -> Bigint.mul (Q.num w) (Bigint.div d (Q.den w))) ws)

let solve_scaled ~cycle ws ~alpha =
  let p = Q.num alpha and q = Q.den alpha in
  let gam = Array.map (Bigint.mul q) ws and sch = Array.map (Bigint.mul p) ws in
  Scaled.solve ~cycle ~gam:(Array.get gam) ~sch:(Array.get sch)
    (Array.length ws)

let solve_component g ~alpha ~cycle verts =
  let d, ws = scale (Array.map (Graph.weight g) verts) in
  let m, forced = solve_scaled ~cycle ws ~alpha in
  let members = ref [] in
  Array.iteri
    (fun i f ->
      match f with
      | Some f when Bigint.equal f m -> members := verts.(i) :: !members
      | _ -> ())
    forced;
  (Q.make m (Bigint.mul (Q.den alpha) d), !members)

let c_oracle =
  Obs.Counter.make ~subsystem:"decomposition" "fastchain_oracle_calls"

let fp_iter = Failpoint.register "solver.fastchain.iter"

let h_and_argmax ?(budget = Budget.unlimited) g ~mask ~alpha =
  if not (supports g ~mask) then
    invalid_arg "Chain_fast: masked graph has a vertex of degree > 2";
  Obs.Counter.incr c_oracle;
  let h = ref Q.zero in
  let s_max = ref Vset.empty in
  List.iter
    (fun comp ->
      Failpoint.hit fp_iter;
      Budget.tick ~cost:(1 + Array.length comp.verts) budget;
      let m, members = solve_component g ~alpha ~cycle:comp.cycle comp.verts in
      h := Q.add !h m;
      List.iter (fun v -> s_max := Vset.add v !s_max) members)
    (components g ~mask);
  (!h, !s_max)

let maximal_bottleneck ?budget g ~mask =
  if Vset.is_empty mask then invalid_arg "Chain_fast: empty mask";
  let total = Graph.weight_of_set g mask in
  if Q.is_zero total then mask
  else
    let init = Graph.alpha_of_set ~mask g mask in
    let b, _alpha =
      Dinkelbach.solve ?budget
        ~oracle:(fun ~alpha -> h_and_argmax ?budget g ~mask ~alpha)
        ~alpha_of:(fun s -> Graph.alpha_of_set ~mask g s)
        init
    in
    b
