module Q = Rational

type stage = { alpha : Q.t; flow : ((int * int) * Q.t) list }
type t = stage list

(* Stage masks follow Definition 2: V_1 = V, V_{i+1} = V_i - (B_i ∪ C_i). *)
let stage_masks g d =
  let rec go mask = function
    | [] -> []
    | (p : Decompose.pair) :: rest ->
        mask :: go (Vset.diff mask (Vset.union p.b p.c)) rest
  in
  go (Graph.full_mask g) d

let build_stage g ~mask ~(alpha : Q.t) =
  if Q.is_inf alpha then { alpha; flow = [] }
  else begin
    let verts = Vset.to_array mask in
    let k = Array.length verts in
    let index = Tables.Itbl.create k in
    Array.iteri (fun i v -> Tables.Itbl.add index v i) verts;
    let source = 2 * k and sink = (2 * k) + 1 in
    let net = Maxflow.create ((2 * k) + 2) in
    let cross = ref [] in
    let expect = ref Q.zero in
    Array.iteri
      (fun i u ->
        let w = Graph.weight g u in
        let cap = Q.mul alpha w in
        expect := Q.add !expect cap;
        ignore (Maxflow.add_edge net ~src:source ~dst:i ~cap);
        ignore (Maxflow.add_edge net ~src:(k + i) ~dst:sink ~cap:w);
        Array.iter
          (fun v ->
            match Tables.Itbl.find_opt index v with
            | Some j ->
                let e = Maxflow.add_edge net ~src:i ~dst:(k + j) ~cap:Q.inf in
                cross := (u, v, e) :: !cross
            | None -> ())
          (Graph.neighbors g u))
      verts;
    let mf = Maxflow.max_flow net ~source ~sink in
    if not (Q.equal mf !expect) then
      invalid_arg
        "Certificate.build: stage network does not saturate (decomposition wrong?)";
    let flow =
      List.filter_map
        (fun (u, v, e) ->
          let f = Maxflow.flow net e in
          if Q.sign f > 0 then Some ((u, v), f) else None)
        !cross
    in
    { alpha; flow }
  end

let build g d =
  List.map2
    (fun (p : Decompose.pair) mask -> build_stage g ~mask ~alpha:p.alpha)
    d (stage_masks g d)

let verify g d cert =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if List.length d <> List.length cert then err "stage count mismatch"
  else begin
    let masks = stage_masks g d in
    let rec stages i ds ms cs =
      match (ds, ms, cs) with
      | [], [], [] -> Ok ()
      | (p : Decompose.pair) :: ds, mask :: ms, (st : stage) :: cs -> (
          (* 1. the claimed alpha matches the pair's definition *)
          let wb = Graph.weight_of_set g p.b in
          let gamma_b = Graph.gamma ~mask g p.b in
          if not (Vset.subset p.b mask) then
            err "stage %d: B_i outside the stage mask" (i + 1)
          else if not (Vset.equal gamma_b p.c) then
            err "stage %d: C_i is not Gamma(B_i) in G_i" (i + 1)
          else if not (Q.equal st.alpha p.alpha) then
            err "stage %d: certificate alpha differs from pair alpha" (i + 1)
          else if
            (not (Q.is_zero wb))
            && not (Q.equal p.alpha (Q.div (Graph.weight_of_set g p.c) wb))
          then err "stage %d: alpha <> w(C)/w(B)" (i + 1)
          else if Q.is_inf st.alpha then stages (i + 1) ds ms cs
          else begin
            (* 2. witness flow: support, non-negativity, capacities,
               saturation *)
            let supply = Tables.Itbl.create 16
            and load = Tables.Itbl.create 16 in
            let add tbl key q =
              let cur =
                match Tables.Itbl.find_opt tbl key with
                | Some c -> c
                | None -> Q.zero
              in
              Tables.Itbl.replace tbl key (Q.add cur q)
            in
            let bad = ref None in
            List.iter
              (fun ((u, v), f) ->
                if Q.sign f < 0 then
                  bad := Some (Printf.sprintf "negative flow %d->%d" u v)
                else if not (Vset.mem u mask && Vset.mem v mask) then
                  bad := Some (Printf.sprintf "flow outside stage mask %d->%d" u v)
                else if not (Graph.mem_edge g u v) then
                  bad := Some (Printf.sprintf "flow on non-edge %d->%d" u v)
                else begin
                  add supply u f;
                  add load v f
                end)
              st.flow;
            match !bad with
            | Some m -> err "stage %d: %s" (i + 1) m
            | None ->
                let saturated = ref None in
                Vset.iter
                  (fun u ->
                    let out =
                      match Tables.Itbl.find_opt supply u with
                      | Some q -> q
                      | None -> Q.zero
                    in
                    if
                      not (Q.equal out (Q.mul st.alpha (Graph.weight g u)))
                    then
                      saturated :=
                        Some
                          (Printf.sprintf
                             "vertex %d ships %s, needs alpha*w = %s" u
                             (Q.to_string out)
                             (Q.to_string (Q.mul st.alpha (Graph.weight g u)))))
                  mask;
                (match !saturated with
                | Some m -> err "stage %d: %s" (i + 1) m
                | None ->
                    (* first overloaded vertex in key order, so the
                       reported witness never depends on hash order *)
                    let over =
                      List.find_map
                        (fun (v, q) ->
                          if Q.compare q (Graph.weight g v) > 0 then
                            Some
                              (Printf.sprintf "vertex %d receives %s > w_v"
                                 v (Q.to_string q))
                          else None)
                        (Tables.Itbl.sorted_bindings load)
                    in
                    match over with
                    | Some m -> err "stage %d: %s" (i + 1) m
                    | None -> stages (i + 1) ds ms cs)
          end)
      | _ -> err "internal: list length mismatch"
    in
    stages 0 d masks cert
  end
