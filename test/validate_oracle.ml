(* The pairwise Proposition 3 checker that Decompose.validate replaced,
   kept as a test oracle.  Its partition check unions every pair and
   tests every two pairs for overlap (O(k^2) set work); the library's
   one-pass check must return exactly what this returns, message
   included, on every decomposition the tests build or mutate. *)

module Q = Rational

type pair = Decompose.pair = { b : Vset.t; c : Vset.t; alpha : Q.t }

let validate_quadratic g (d : Decompose.t) =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let pairs = Array.of_list d in
  let k = Array.length pairs in
  let check_partition () =
    let all =
      Array.fold_left
        (fun acc p -> Vset.union acc (Vset.union p.b p.c))
        Vset.empty pairs
    in
    if not (Vset.equal all (Graph.full_mask g)) then
      err "pairs do not cover the vertex set"
    else begin
      let rec disjoint i =
        if i >= k then Ok ()
        else
          let rec inner j =
            if j >= k then disjoint (i + 1)
            else if
              not
                (Vset.disjoint
                   (Vset.union pairs.(i).b pairs.(i).c)
                   (Vset.union pairs.(j).b pairs.(j).c))
            then err "pairs %d and %d overlap" i j
            else inner (j + 1)
          in
          inner (i + 1)
      in
      disjoint 0
    end
  in
  let check_alphas () =
    let rec go i =
      if i >= k then Ok ()
      else
        let a = pairs.(i).alpha in
        if Q.compare a Q.one > 0 then err "alpha_%d > 1" (i + 1)
        else if i > 0 && Q.compare pairs.(i - 1).alpha a >= 0 then
          err "alpha_%d >= alpha_%d" i (i + 1)
        else if Q.equal a Q.one && i < k - 1 then
          err "alpha_%d = 1 but pair is not last" (i + 1)
        else go (i + 1)
    in
    go 0
  in
  let check_structure () =
    let rec go i =
      if i >= k then Ok ()
      else
        let p = pairs.(i) in
        if Q.compare p.alpha Q.one < 0 then
          if not (Vset.disjoint p.b p.c) then
            err "B_%d and C_%d intersect with alpha < 1" (i + 1) (i + 1)
          else if
            Vset.exists
              (fun u ->
                Array.exists
                  (fun v -> Vset.mem v p.b)
                  (Graph.neighbors g u))
              p.b
          then err "B_%d is not independent" (i + 1)
          else go (i + 1)
        else if not (Vset.equal p.b p.c) then
          err "alpha_%d = 1 but B_%d <> C_%d" (i + 1) (i + 1) (i + 1)
        else go (i + 1)
    in
    go 0
  in
  let check_cross_edges () =
    (* No B_i–B_j edges (i <> j); B_i–C_j edges require j <= i. *)
    let side = Array.make (Graph.n g) `None in
    Array.iteri
      (fun i p ->
        Vset.iter (fun v -> side.(v) <- `B i) p.b;
        Vset.iter
          (fun v -> if side.(v) = `None then side.(v) <- `C i)
          p.c)
      pairs;
    let bad = ref None in
    List.iter
      (fun (u, v) ->
        match (side.(u), side.(v)) with
        | `B i, `B j when i <> j ->
            bad := Some (Printf.sprintf "edge between B_%d and B_%d" (i + 1) (j + 1))
        | `B i, `C j | `C j, `B i ->
            if j > i then
              bad :=
                Some
                  (Printf.sprintf "edge between B_%d and C_%d" (i + 1) (j + 1))
        | _ -> ())
      (Graph.edges g);
    match !bad with None -> Ok () | Some m -> Error m
  in
  let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e in
  check_partition () >>= check_alphas >>= check_structure >>= check_cross_edges
