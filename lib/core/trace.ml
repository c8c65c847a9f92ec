module Q = Rational

type interval = {
  lo : Qx.t;
  hi : Qx.t;
  sample : Q.t;
  structure : Decompose.t;
  v_class : Classes.cls;
  v_pair : int;
}

type transition = { at : Qx.t; kind : [ `Merge | `Split | `Other ] }

type t = { v : int; intervals : interval list; transitions : transition list }

let compute ?ctx g ~v =
  let pieces = Breakpoints.exact_pieces ?ctx g ~v in
  let interval (p : Breakpoints.exact_piece) =
    {
      lo = p.xlo;
      hi = p.xhi;
      sample = p.sample;
      structure = p.structure;
      v_class =
        (Classes.of_decomposition (Graph.with_weight g v p.sample)
           p.structure).(v);
      v_pair = Decompose.pair_index p.structure v;
    }
  in
  let transition (ev : Breakpoints.exact_event) =
    { at = ev.at; kind = Breakpoints.classify_event ev ~v }
  in
  {
    v;
    intervals = List.map interval pieces;
    transitions = List.map transition (Breakpoints.events pieces);
  }

let check_prop12 t =
  (* class sides: C-phase then B-phase *)
  let rec phases phase = function
    | [] -> Ok ()
    | iv :: rest -> (
        match (iv.v_class, phase) with
        | Classes.Both, _ -> phases phase rest
        | Classes.C, `C_phase -> phases `C_phase rest
        | Classes.C, `B_phase ->
            Error "v returns to C class after being B class"
        | Classes.B, _ -> phases `B_phase rest)
  in
  match phases `C_phase t.intervals with
  | Error _ as e -> e
  | Ok () ->
      (* pair-count deltas across merge/split transitions *)
      let rec steps ivs trs =
        match (ivs, trs) with
        | a :: (b :: _ as rest), (tr : transition) :: trs -> (
            let da = List.length a.structure
            and db = List.length b.structure in
            match tr.kind with
            | `Merge ->
                if db = da - 1 then steps rest trs
                else Error "merge event does not reduce pair count by one"
            | `Split ->
                if db = da + 1 then steps rest trs
                else Error "split event does not raise pair count by one"
            | `Other -> steps rest trs)
        | _ -> Ok ()
      in
      steps t.intervals t.transitions

let pp fmt t =
  Format.fprintf fmt "@[<v>trace for agent %d (%d intervals)@," t.v
    (List.length t.intervals);
  let rec go ivs trs =
    match ivs with
    | [] -> ()
    | iv :: rest ->
        Format.fprintf fmt "x in [%.5f, %.5f]: %d pairs, v in pair %d, class %a@,"
          (Qx.to_float iv.lo) (Qx.to_float iv.hi)
          (List.length iv.structure)
          (iv.v_pair + 1) Classes.pp_cls iv.v_class;
        (match trs with
        | (tr : transition) :: trs' ->
            if rest <> [] then begin
              Format.fprintf fmt "  -- %s at x = %a --@,"
                (match tr.kind with
                | `Merge -> "merge"
                | `Split -> "split"
                | `Other -> "reshape")
                Qx.pp tr.at;
              go rest trs'
            end
            else go rest trs
        | [] -> go rest [])
  in
  go t.intervals t.transitions;
  Format.fprintf fmt "@]"

let to_csv t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "lo,hi,pairs,v_class,v_alpha\n";
  List.iter
    (fun iv ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%d,%s,%s\n" (Qx.to_string iv.lo)
           (Qx.to_string iv.hi)
           (List.length iv.structure)
           (Format.asprintf "%a" Classes.pp_cls iv.v_class)
           (Q.to_string (Decompose.alpha_of iv.structure t.v))))
    t.intervals;
  Buffer.contents buf
