type t =
  | Parse_error of { file : string option; line : int; msg : string }
  | Infeasible_dp of string
  | Oracle_inconsistent of string
  | Budget_exhausted of { steps : int; elapsed : float }
  | Certificate_mismatch of string
  | Io_error of { file : string; msg : string }
  | Invalid_input of string
  | Injected of { site : string; transient : bool }

exception Error of t

let error t = raise (Error t)

let to_string = function
  | Parse_error { file; line; msg } ->
      let where = match file with Some f -> f ^ ": " | None -> "" in
      Printf.sprintf "parse error: %sline %d: %s" where line msg
  | Infeasible_dp m -> "infeasible DP: " ^ m
  | Oracle_inconsistent m -> "oracle inconsistent: " ^ m
  | Budget_exhausted { steps; elapsed } ->
      Printf.sprintf "budget exhausted after %d steps (%.2f s)" steps elapsed
  | Certificate_mismatch m -> "certificate mismatch: " ^ m
  | Io_error { file = ""; msg } -> "io error: " ^ msg
  | Io_error { file; msg } -> Printf.sprintf "io error: %s: %s" file msg
  | Invalid_input m -> m
  | Injected { site; transient } ->
      Printf.sprintf "injected fault at failpoint %s (%s)" site
        (if transient then "transient" else "permanent")

let pp fmt t = Format.pp_print_string fmt (to_string t)

let exit_code = function
  | Parse_error _ | Invalid_input _ -> 2
  | Infeasible_dp _ | Oracle_inconsistent _ | Certificate_mismatch _ -> 3
  | Budget_exhausted _ -> 4
  | Io_error _ -> 5
  | Injected { transient; _ } -> if transient then 5 else 3

(* The retry policy (Retry.with_retry) only ever re-runs these: faults
   of the environment, not of the input or the algorithms. *)
let is_transient = function
  | Io_error _ -> true
  | Injected { transient; _ } -> transient
  | Parse_error _ | Infeasible_dp _ | Oracle_inconsistent _
  | Budget_exhausted _ | Certificate_mismatch _ | Invalid_input _ ->
      false

let capture f =
  match f () with
  | x -> Ok x
  | exception Error t -> Result.Error t
  | exception Budget.Exhausted { steps; elapsed } ->
      Result.Error (Budget_exhausted { steps; elapsed })
  | exception Invalid_argument m -> Result.Error (Invalid_input m)
  | exception Failure m -> Result.Error (Invalid_input m)
  | exception Sys_error m -> Result.Error (Io_error { file = ""; msg = m })
  | exception Failpoint.Fault { site; transient } ->
      (* only reachable if the raiser below was bypassed *)
      Result.Error (Injected { site; transient })

(* Injected faults surface as first-class taxonomy errors everywhere,
   not as a private Failpoint exception. *)
let () =
  Failpoint.set_raiser (fun ~site ~transient ->
      Error (Injected { site; transient }))
