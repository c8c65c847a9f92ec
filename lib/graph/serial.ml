let header = "ringshare-graph v1"

let fp_write = Failpoint.register "serial.write"
let fp_rename = Failpoint.register "serial.rename"
let fp_read = Failpoint.register "serial.read"
let fp_parse = Failpoint.register "serial.parse"

(* One pass over the v1 lines (no trailing newline on [emit]ted lines):
   the single source of truth for [to_string], the streaming [save] and
   the cache [digest], none of which need the whole serialisation in
   memory at once.  Edges stream via [Graph.iter_edges], so implicit
   ring/path backends serialise without rehydrating adjacency arrays. *)
let iter_lines g emit =
  emit header;
  let directives = ref 0 in
  let add fmt =
    Printf.ksprintf
      (fun s ->
        incr directives;
        emit s)
      fmt
  in
  add "n %d" (Graph.n g);
  for v = 0 to Graph.n g - 1 do
    add "w %d %s" v (Rational.to_string (Graph.weight g v))
  done;
  Graph.iter_edges g (fun u v -> add "e %d %d" u v);
  emit (Printf.sprintf "end %d" !directives)

let to_string g =
  let buf = Buffer.create 256 in
  iter_lines g (fun line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n');
  Buffer.contents buf

(* Stable content digest for cache keys.  MD5 over the serial line
   stream, folded in bounded chunks (digest-of-chunk-digests) so neither
   the serialisation nor any adjacency materialisation is ever resident —
   a million-vertex ring digests in O(chunk) memory.  Equal serialised
   content yields equal digests whichever backend carries the graph.
   The chunk buffer starts near the graph's serialised size (a "w" plus
   an "e" line per vertex of a chain graph), so a small graph does not
   allocate a 64 KB major-heap block per digest; only the folding
   boundary, not the buffer's size, decides the digest. *)
let digest_chunk = 65536

let digest g =
  let chunk = Buffer.create (min digest_chunk (64 + (48 * Graph.n g))) in
  let folded = Buffer.create 256 in
  let flush_chunk () =
    if Buffer.length chunk > 0 then begin
      Buffer.add_string folded (Digest.string (Buffer.contents chunk));
      Buffer.clear chunk
    end
  in
  iter_lines g (fun line ->
      Buffer.add_string chunk line;
      Buffer.add_char chunk '\n';
      if Buffer.length chunk >= digest_chunk then flush_chunk ());
  flush_chunk ();
  Digest.to_hex (Digest.string (Buffer.contents folded))

(* Structured parser over a pull-based line source, building through
   [Graph.Builder] — no intermediate edge list, so streaming a
   million-vertex file allocates only the graph itself.  [strict]
   additionally demands the [end] footer that [to_string] emits, so a
   file truncated at a line boundary is detected; hand-written strings
   without a footer stay accepted in lax mode. *)
let parse_source ?file ~strict next =
  Failpoint.hit fp_parse;
  let fail line fmt =
    Printf.ksprintf
      (fun msg -> Ringshare_error.(error (Parse_error { file; line; msg })))
      fmt
  in
  let builder = ref None in
  let bn = ref (-1) in
  let saw_header = ref false in
  let directives = ref 0 in
  let footer = ref None in
  let lineno = ref 0 in
  let process raw =
    let line = !lineno in
    let text =
      match String.index_opt raw '#' with
      | Some j -> String.sub raw 0 j
      | None -> raw
    in
    match
      String.split_on_char ' ' (String.trim text)
      |> List.filter (fun t -> not (String.equal t ""))
    with
    | [] -> ()
    | toks when !footer <> None ->
        fail line "content after end marker: %S" (String.concat " " toks)
    | toks when not !saw_header ->
        if String.equal (String.trim text) header then saw_header := true
        else
          fail line "expected header %S, got %S" header (String.concat " " toks)
    | [ "n"; count ] -> (
        incr directives;
        if !bn >= 0 then fail line "duplicate n directive";
        match int_of_string_opt count with
        | Some c when c >= 0 ->
            bn := c;
            builder := Some (Graph.Builder.create ~n:c)
        | _ -> fail line "bad vertex count %S" count)
    | [ "w"; v; q ] -> (
        incr directives;
        match !builder with
        | None -> fail line "w before n"
        | Some b -> (
            match int_of_string_opt v with
            | Some v when v >= 0 && v < !bn -> (
                match Rational.of_string q with
                | q -> Graph.Builder.set_weight b v q
                | exception _ -> fail line "bad weight %S" q)
            | _ -> fail line "bad vertex id %S" v))
    | [ "e"; u; v ] -> (
        incr directives;
        match !builder with
        | None -> fail line "e before n"
        | Some b -> (
            match (int_of_string_opt u, int_of_string_opt v) with
            | Some u, Some v -> (
                try Graph.Builder.add_edge b u v
                with Invalid_argument m -> fail line "%s" m)
            | _ -> fail line "bad edge %S %S" u v))
    | [ "end" ] -> footer := Some line
    | [ "end"; count ] -> (
        match int_of_string_opt count with
        | Some c when c = !directives -> footer := Some line
        | Some c ->
            fail line "end count %d does not match %d directives (truncated?)" c
              !directives
        | None -> fail line "bad end count %S" count)
    | toks -> fail line "unrecognised directive %S" (String.concat " " toks)
  in
  let rec drain () =
    match next () with
    | None -> ()
    | Some raw ->
        incr lineno;
        process raw;
        drain ()
  in
  drain ();
  let eof = !lineno + 1 in
  if not !saw_header then fail eof "missing header";
  match !builder with
  | None -> fail eof "missing n directive"
  | Some b ->
      if strict && !footer = None then
        fail eof "missing end marker (file truncated?)";
      (try Graph.Builder.finish b
       with Invalid_argument m -> fail eof "%s" m)

(* String entry point: feed the split segments through the line source.
   A trailing empty segment (text ending in '\n') is dropped so eof line
   numbers match the historical whole-string parser. *)
let parse ?file ~strict s =
  let segs = String.split_on_char '\n' s in
  let segs =
    match List.rev segs with
    | "" :: rest -> List.rev rest
    | _ -> segs
  in
  let remaining = ref segs in
  parse_source ?file ~strict (fun () ->
      match !remaining with
      | [] -> None
      | x :: tl ->
          remaining := tl;
          Some x)

let of_string_r s = Ringshare_error.capture (fun () -> parse ~strict:false s)

let of_string s =
  (* compatibility shim: the historical contract is Invalid_argument with a
     line-numbered message *)
  match of_string_r s with
  | Ok g -> g
  | Error (Ringshare_error.Parse_error { line; msg; _ }) ->
      invalid_arg (Printf.sprintf "Serial.of_string: line %d: %s" line msg)
  | Error e -> invalid_arg ("Serial.of_string: " ^ Ringshare_error.to_string e)

let save path g =
  (* write-to-temp + rename in the same directory: a crash mid-write can
     tear only the temp file, never an existing instance file.  Content
     streams line-by-line; the serialisation is never resident. *)
  Atomic_file.write_stream ~write_fp:fp_write ~rename_fp:fp_rename ~path
    (fun oc ->
      iter_lines g (fun line ->
          output_string oc line;
          output_char oc '\n'))

let load_r path =
  Ringshare_error.capture (fun () ->
      Failpoint.hit fp_read;
      match open_in_bin path with
      | exception Sys_error msg ->
          Ringshare_error.(error (Io_error { file = path; msg }))
      | ic -> (
          match
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () ->
                parse_source ~file:path ~strict:true (fun () ->
                    In_channel.input_line ic))
          with
          | g -> g
          | exception Sys_error msg ->
              Ringshare_error.(error (Io_error { file = path; msg }))))

let load path =
  match load_r path with
  | Ok g -> g
  | Error e -> invalid_arg ("Serial.load: " ^ Ringshare_error.to_string e)
