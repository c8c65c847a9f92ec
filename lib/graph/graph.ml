module Q = Rational

(* Adjacency backends.  [Lists] materialises sorted neighbour arrays;
   [Ring]/[Path] are implicit — the structured families the paper
   actually studies (rings, paths) need no O(n) adjacency arrays, which
   is what makes million-vertex instances memory-lean.  Both implicit
   backends present the identical abstract graph (same neighbour sets,
   same iteration order) as the materialised one, pinned by tests. *)
type adjacency =
  | Lists of int array array (* sorted neighbour lists *)
  | Ring (* v ~ v±1 mod n, n >= 3 *)
  | Path (* v ~ v±1, n >= 1 *)

type t = { n : int; adj : adjacency; w : Q.t array }

let n g = g.n
let weight g v = g.w.(v)
let weights g = Array.copy g.w

let degree g v =
  match g.adj with
  | Lists a -> Array.length a.(v)
  | Ring -> 2
  | Path -> if Int.equal g.n 1 then 0 else if v = 0 || v = g.n - 1 then 1 else 2

(* Neighbours in strictly increasing order, matching the sorted arrays
   of the materialised backend — callers that fold over neighbours see
   the same sequence whichever backend carries the graph. *)
let neighbors g v =
  match g.adj with
  | Lists a -> a.(v)
  | Ring ->
      if v = 0 then [| 1; g.n - 1 |]
      else if v = g.n - 1 then [| 0; g.n - 2 |]
      else [| v - 1; v + 1 |]
  | Path ->
      if Int.equal g.n 1 then [||]
      else if v = 0 then [| 1 |]
      else if v = g.n - 1 then [| g.n - 2 |]
      else [| v - 1; v + 1 |]

(* Allocation-free traversal for the hot paths: implicit backends never
   build the 2-element array [neighbors] would. *)
let iter_neighbors g v f =
  match g.adj with
  | Lists a ->
      let nb = a.(v) in
      for i = 0 to Array.length nb - 1 do
        f nb.(i)
      done
  | Ring ->
      if v = 0 then begin
        f 1;
        f (g.n - 1)
      end
      else if v = g.n - 1 then begin
        f 0;
        f (g.n - 2)
      end
      else begin
        f (v - 1);
        f (v + 1)
      end
  | Path ->
      if Int.equal g.n 1 then ()
      else if v = 0 then f 1
      else if v = g.n - 1 then f (g.n - 2)
      else begin
        f (v - 1);
        f (v + 1)
      end

let fold_neighbors g v f acc =
  let acc = ref acc in
  iter_neighbors g v (fun u -> acc := f !acc u);
  !acc

let repr g =
  match g.adj with Lists _ -> `Lists | Ring -> `Ring | Path -> `Path

let check_weights ctx weights =
  Array.iteri
    (fun i w ->
      if Q.sign w < 0 then
        invalid_arg (Printf.sprintf "%s: negative weight at vertex %d" ctx i))
    weights

let create ~weights ~edges =
  let n = Array.length weights in
  check_weights "Graph.create" weights;
  let lists = Array.make n [] in
  let seen = Tables.Ptbl.create (List.length edges) in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.create: edge endpoint out of range";
      if u = v then invalid_arg "Graph.create: self-loop";
      let key = (Int.min u v, Int.max u v) in
      if Tables.Ptbl.mem seen key then
        invalid_arg "Graph.create: duplicate edge";
      Tables.Ptbl.add seen key ();
      lists.(u) <- v :: lists.(u);
      lists.(v) <- u :: lists.(v))
    edges;
  let adj =
    Array.map (fun l -> Array.of_list (List.sort_uniq Int.compare l)) lists
  in
  { n; adj = Lists adj; w = Array.copy weights }

let of_int_weights ~weights ~edges =
  create ~weights:(Array.map Q.of_int weights) ~edges

let ring ~weights =
  let n = Array.length weights in
  if n < 3 then invalid_arg "Graph.ring: need at least 3 vertices";
  check_weights "Graph.ring" weights;
  { n; adj = Ring; w = Array.copy weights }

let path ~weights =
  let n = Array.length weights in
  if n < 1 then invalid_arg "Graph.path: need at least 1 vertex";
  check_weights "Graph.path" weights;
  { n; adj = Path; w = Array.copy weights }

let materialise g =
  match g.adj with
  | Lists _ -> g
  | Ring | Path ->
      let adj = Array.init g.n (fun v -> neighbors g v) in
      { g with adj = Lists adj }

let with_weight g v w =
  if Q.sign w < 0 then invalid_arg "Graph.with_weight: negative weight";
  let w' = Array.copy g.w in
  w'.(v) <- w;
  (* record sharing: adjacency (implicit or materialised) is reused
     untouched, so the update allocates only the weight array *)
  { g with w = w' }

let with_weights g ws =
  if not (Int.equal (Array.length ws) g.n) then
    invalid_arg "Graph.with_weights: length mismatch";
  Array.iter
    (fun w ->
      if Q.sign w < 0 then invalid_arg "Graph.with_weights: negative weight")
    ws;
  { g with w = Array.copy ws }

let mem_edge g u v =
  match g.adj with
  | Lists adj ->
      let a = adj.(u) in
      let rec bin lo hi =
        if lo >= hi then false
        else
          let mid = (lo + hi) / 2 in
          if a.(mid) = v then true
          else if a.(mid) < v then bin (mid + 1) hi
          else bin lo mid
      in
      bin 0 (Array.length a)
  | Ring ->
      u <> v
      && (abs (u - v) = 1
         || (Int.equal (Int.min u v) 0 && Int.equal (Int.max u v) (g.n - 1)))
  | Path -> abs (u - v) = 1

let edges g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    (* collect this vertex's forward edges in reverse neighbour order so
       the accumulated list comes out identical to the historical
       adjacency-array scan *)
    let fwd = ref [] in
    iter_neighbors g u (fun v -> if u < v then fwd := (u, v) :: !fwd);
    List.iter (fun e -> acc := e :: !acc) !fwd
  done;
  !acc

let iter_edges g f =
  for u = 0 to g.n - 1 do
    iter_neighbors g u (fun v -> if u < v then f u v)
  done

let max_degree g =
  match g.adj with
  | Lists adj -> Array.fold_left (fun m a -> Int.max m (Array.length a)) 0 adj
  | Ring -> 2
  | Path -> if Int.equal g.n 1 then 0 else if Int.equal g.n 2 then 1 else 2

let is_chain_graph g = max_degree g <= 2

let is_ring g =
  match g.adj with
  | Ring -> true
  | Path -> false
  | Lists adj ->
      g.n >= 3
      && Array.for_all (fun a -> Array.length a = 2) adj
      &&
      (* connectivity: walk the cycle from vertex 0 *)
      let visited = Array.make g.n false in
      let rec walk prev cur count =
        if visited.(cur) then count
        else begin
          visited.(cur) <- true;
          let next =
            if adj.(cur).(0) = prev then adj.(cur).(1) else adj.(cur).(0)
          in
          walk cur next (count + 1)
        end
      in
      Int.equal (walk (-1) 0 0) g.n

let full_mask g = Vset.range 0 g.n

let weight_of_set g s = Vset.fold (fun v acc -> Q.add acc g.w.(v)) s Q.zero

let gamma ?mask g s =
  let in_mask =
    match mask with None -> fun _ -> true | Some m -> fun v -> Vset.mem v m
  in
  Vset.fold
    (fun v acc ->
      fold_neighbors g v
        (fun acc u -> if in_mask u then Vset.add u acc else acc)
        acc)
    s Vset.empty

let alpha_of_set ?mask g s =
  if Vset.is_empty s then invalid_arg "Graph.alpha_of_set: empty set";
  let ws = weight_of_set g s in
  if Q.is_zero ws then Q.inf
  else Q.div (weight_of_set g (gamma ?mask g s)) ws

(* ------------------------------------------------------------------ *)
(* Streaming construction                                              *)
(* ------------------------------------------------------------------ *)

module Builder = struct
  (* Incremental construction without an intermediate edge list: the
     streaming [Serial] reader feeds directives straight in.  Adjacency
     grows per-vertex (amortised doubling); [finish] sorts, validates
     with the same error messages as [create], and drops to an implicit
     backend when the edge set is exactly the canonical ring or path. *)
  type b = {
    bn : int;
    bw : Q.t array;
    bdeg : int array;
    bnbr : int array array;
    mutable bedges : int;
    mutable bconsecutive : int; (* edges (u, u+1) *)
    mutable bwrap : bool; (* edge (0, n-1), n >= 3 *)
  }

  let create ~n =
    if n < 0 then invalid_arg "Graph.Builder.create: negative vertex count";
    {
      bn = n;
      bw = Array.make n Q.zero;
      bdeg = Array.make n 0;
      bnbr = Array.make n [||];
      bedges = 0;
      bconsecutive = 0;
      bwrap = false;
    }

  let set_weight b v w =
    if v < 0 || v >= b.bn then
      invalid_arg "Graph.Builder.set_weight: vertex out of range";
    b.bw.(v) <- w

  let push b u v =
    let a = b.bnbr.(u) in
    let d = b.bdeg.(u) in
    if d >= Array.length a then begin
      let a' = Array.make (Int.max 2 (2 * d)) 0 in
      Array.blit a 0 a' 0 d;
      b.bnbr.(u) <- a';
      a'.(d) <- v
    end
    else a.(d) <- v;
    b.bdeg.(u) <- d + 1

  let add_edge b u v =
    if u < 0 || u >= b.bn || v < 0 || v >= b.bn then
      invalid_arg "Graph.create: edge endpoint out of range";
    if u = v then invalid_arg "Graph.create: self-loop";
    push b u v;
    push b v u;
    b.bedges <- b.bedges + 1;
    let lo = Int.min u v and hi = Int.max u v in
    if hi - lo = 1 then b.bconsecutive <- b.bconsecutive + 1;
    if lo = 0 && hi = b.bn - 1 && b.bn >= 3 then b.bwrap <- true

  let finish b =
    check_weights "Graph.create" b.bw;
    let adj =
      Array.init b.bn (fun v ->
          let a = Array.sub b.bnbr.(v) 0 b.bdeg.(v) in
          Array.sort Int.compare a;
          for i = 1 to Array.length a - 1 do
            if a.(i) = a.(i - 1) then
              invalid_arg "Graph.create: duplicate edge"
          done;
          a)
    in
    let is_canonical_ring =
      b.bn >= 3
      && Int.equal b.bedges b.bn
      && Int.equal b.bconsecutive (b.bn - 1)
      && b.bwrap
    in
    let is_canonical_path =
      b.bn >= 1
      && Int.equal b.bedges (b.bn - 1)
      && Int.equal b.bconsecutive (b.bn - 1)
    in
    if is_canonical_ring then { n = b.bn; adj = Ring; w = b.bw }
    else if is_canonical_path then { n = b.bn; adj = Path; w = b.bw }
    else { n = b.bn; adj = Lists adj; w = b.bw }
end

let pp fmt g =
  Format.fprintf fmt "@[<v>graph on %d vertices@," g.n;
  (* A vertex line holds no break hints, so emitting it as one string
     prints the same bytes as formatting it piece by piece, with one
     Format call instead of ~5. *)
  let line = Buffer.create 64 in
  for v = 0 to g.n - 1 do
    Buffer.clear line;
    Buffer.add_string line "  ";
    Buffer.add_string line (string_of_int v);
    Buffer.add_string line " (w=";
    Buffer.add_string line (Q.to_string g.w.(v));
    Buffer.add_string line "):";
    iter_neighbors g v (fun u ->
        Buffer.add_char line ' ';
        Buffer.add_string line (string_of_int u));
    Format.pp_print_string fmt (Buffer.contents line);
    Format.pp_print_cut fmt ()
  done;
  Format.fprintf fmt "@]"
