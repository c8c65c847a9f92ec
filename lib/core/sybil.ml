module Q = Rational

type split = { path : Graph.t; v1 : int; v2 : int }
type splits = { v : int; weights : Q.t array }
type ksplit = { kpath : Graph.t; ids : int array }

let ring_neighbors g v =
  match Graph.neighbors g v with
  | [| a; b |] -> (a, b)
  | _ -> invalid_arg "Sybil: vertex does not have degree 2"

let splitk_free g { v; weights = ws } =
  if not (Graph.is_ring g) then invalid_arg "Sybil.splitk: not a ring";
  let k = Array.length ws in
  if k < 2 then invalid_arg "Sybil.splitk: fewer than 2 identities";
  Array.iter
    (fun w ->
      if Q.sign w < 0 then
        invalid_arg "Sybil.splitk: negative identity weight")
    ws;
  let n = Graph.n g in
  let _a, b = ring_neighbors g v in
  (* v keeps its id and the edge to the smaller neighbour id; the fresh
     identities n, n+1, …, n+k−2 form a chain hanging off b, so the
     identities sit consecutively along the opened ring
     v¹ — a — … — b — v² — … — v^k and every vertex keeps degree ≤ 2. *)
  let weights = Array.make (n + k - 1) Q.zero in
  for u = 0 to n - 1 do
    weights.(u) <- Graph.weight g u
  done;
  weights.(v) <- ws.(0);
  for j = 1 to k - 1 do
    weights.(n + j - 1) <- ws.(j)
  done;
  let added =
    List.init (k - 1) (fun j -> if j = 0 then (n, b) else (n + j, n + j - 1))
  in
  let edges =
    added
    @ List.filter (fun (x, y) -> not ((x = v && y = b) || (x = b && y = v)))
        (Graph.edges g)
  in
  let ids = Array.init k (fun j -> if j = 0 then v else n + j - 1) in
  { kpath = Graph.create ~weights ~edges; ids }

(* Sums from the first term: every split evaluation sums its weights
   and its identities' utilities, and adding zero costs a full rational
   add. *)
let sum_by f xs =
  if Array.length xs = 0 then Q.zero
  else begin
    let acc = ref (f xs.(0)) in
    for j = 1 to Array.length xs - 1 do
      acc := Q.add !acc (f xs.(j))
    done;
    !acc
  end

let splitk g ({ v; weights = ws } as s) =
  let total = sum_by Fun.id ws in
  if not (Q.equal total (Graph.weight g v)) then
    invalid_arg "Sybil.splitk: weights must sum to w_v";
  splitk_free g s

let splitk_utility ?ctx g s =
  let ks = splitk g s in
  let d = Decompose.compute ?ctx ks.kpath in
  sum_by (Utility.of_vertex ks.kpath d) ks.ids

let split_free g ~v ~w1 ~w2 =
  (* historical error messages, pinned by test_sybil.ml *)
  if not (Graph.is_ring g) then invalid_arg "Sybil.split: not a ring";
  if Q.sign w1 < 0 || Q.sign w2 < 0 then
    invalid_arg "Sybil.split: negative identity weight";
  let ks = splitk_free g { v; weights = [| w1; w2 |] } in
  { path = ks.kpath; v1 = ks.ids.(0); v2 = ks.ids.(1) }

let split g ~v ~w1 ~w2 =
  if not (Q.equal (Q.add w1 w2) (Graph.weight g v)) then
    invalid_arg "Sybil.split: weights must sum to w_v";
  split_free g ~v ~w1 ~w2

let utilities_of_split ?ctx s =
  let d = Decompose.compute ?ctx s.path in
  (Utility.of_vertex s.path d s.v1, Utility.of_vertex s.path d s.v2)

let split_utility ?ctx g ~v ~w1 =
  let w2 = Q.sub (Graph.weight g v) w1 in
  let s = split g ~v ~w1 ~w2 in
  let u1, u2 = utilities_of_split ?ctx s in
  Q.add u1 u2

let honest_utility ?ctx g ~v =
  let d = Decompose.compute ?ctx g in
  Utility.of_vertex g d v

let initial_split ?ctx g ~v =
  if not (Graph.is_ring g) then invalid_arg "Sybil.initial_split: not a ring";
  let a, b = ring_neighbors g v in
  let alloc = Allocation.compute ?ctx g in
  (Allocation.amount alloc ~src:v ~dst:a, Allocation.amount alloc ~src:v ~dst:b)
