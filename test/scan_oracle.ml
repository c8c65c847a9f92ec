(* The grid-and-bisection breakpoint scan, kept as an independent oracle
   for the exact piece enumeration of [Breakpoints].

   A [grid]-cell walk over [0, w_v] compares the decompositions at
   consecutive grid points; a cell whose endpoints differ is bisected
   down to a bracket of width at most w_v·2⁻²⁰ around each change.  A
   cell hiding an even number of changes that restore the same
   decomposition is reported as zero events (its endpoints agree), so
   the scan can only under-count: every bracket it reports must contain
   an exact event, and it never reports more events than the exact
   enumeration. *)

module Q = Rational

type event = {
  lo : Q.t;
  hi : Q.t;  (** bracket around the change point *)
  before : Decompose.t;  (** decomposition at [lo] *)
  after : Decompose.t;  (** decomposition at [hi] *)
}

(* Scan of a decomposition-valued function over [0, span]. *)
let scan_fn ~grid ~span decomp =
  let tolerance = Q.div_int span (1 lsl 20) in
  let rec bisect lo dlo hi dhi acc =
    (* invariant: dlo and dhi differ *)
    if Q.compare (Q.sub hi lo) tolerance <= 0 then
      { lo; hi; before = dlo; after = dhi } :: acc
    else
      let mid = Q.div_int (Q.add lo hi) 2 in
      let dmid = decomp mid in
      if Decompose.same_structure dlo dmid then bisect mid dmid hi dhi acc
      else if Decompose.same_structure dmid dhi then bisect lo dlo mid dmid acc
      else
        (* two separate changes inside the cell: lower half first, so
           the accumulator stays in scan order *)
        bisect mid dmid hi dhi (bisect lo dlo mid dmid acc)
  in
  let step = Q.div_int span grid in
  let rec walk i x dx acc =
    if i > grid then List.rev acc
    else
      let x' = if i = grid then span else Q.mul_int step i in
      let dx' = decomp x' in
      let acc =
        if Decompose.same_structure dx dx' then acc else bisect x dx x' dx' acc
      in
      walk (i + 1) x' dx' acc
  in
  if Q.sign span <= 0 then [] else walk 1 Q.zero (decomp Q.zero) []

(* Change events of [v]'s reported weight over [0, w_v]. *)
let scan ~grid g ~v =
  scan_fn ~grid ~span:(Graph.weight g v) (fun x ->
      Decompose.compute (Graph.with_weight g v x))

(* Change events of the split path P_v(w1, w_v − w1) over w1 ∈ [0, w_v]. *)
let scan_split ~grid g ~v =
  let w = Graph.weight g v in
  scan_fn ~grid ~span:w (fun w1 ->
      Decompose.compute (Sybil.split_free g ~v ~w1 ~w2:(Q.sub w w1)).Sybil.path)

(* Whether every bracket of [scan] contains one of the exact [events],
   and [scan] reports no more events than [events] holds; [Error] names
   the first bracket without an exact event or the two counts. *)
let check_against scan (events : Breakpoints.exact_event list) =
  match
    List.find_opt
      (fun ev ->
        not
          (List.exists
             (fun (e : Breakpoints.exact_event) ->
               Qx.compare_q e.at ev.lo >= 0 && Qx.compare_q e.at ev.hi <= 0)
             events))
      scan
  with
  | Some ev ->
      Error
        (Printf.sprintf "scan bracket (%s, %s) holds no exact event"
           (Q.to_string ev.lo) (Q.to_string ev.hi))
  | None ->
      if List.length scan > List.length events then
        Error
          (Printf.sprintf "scan found %d events, the exact enumeration %d"
             (List.length scan) (List.length events))
      else Ok ()
