(* Tests for the instance file format. *)

module Q = Rational

let roundtrip g =
  let g' = Serial.of_string (Serial.to_string g) in
  Graph.n g = Graph.n g'
  && Graph.edges g = Graph.edges g'
  && Array.for_all2 Q.equal (Graph.weights g) (Graph.weights g')

let test_roundtrip_known () =
  List.iter
    (fun g -> Alcotest.(check bool) "roundtrip" true (roundtrip g))
    [
      Generators.fig1 ();
      Generators.ring_of_ints [| 1; 2; 3 |];
      Graph.create
        ~weights:[| Q.of_ints 1 2; Q.of_ints 7 3 |]
        ~edges:[ (0, 1) ];
      Graph.of_int_weights ~weights:[| 5 |] ~edges:[];
    ]

let test_parse_with_comments () =
  let text =
    "ringshare-graph v1\n# a triangle\nn 3\nw 0 1\nw 1 2 # inline\nw 2 1/2\n\ne 0 1\ne 1 2\ne 2 0\n"
  in
  let g = Serial.of_string text in
  Alcotest.(check int) "n" 3 (Graph.n g);
  Helpers.check_q "fraction weight" (Q.of_ints 1 2) (Graph.weight g 2);
  Alcotest.(check int) "edges" 3 (List.length (Graph.edges g))

let test_unlisted_weight_defaults_zero () =
  let g = Serial.of_string "ringshare-graph v1\nn 2\nw 0 5\ne 0 1\n" in
  Helpers.check_q "default" Q.zero (Graph.weight g 1)

let expect_invalid text =
  match Serial.of_string text with
  | _ -> Alcotest.fail "accepted malformed input"
  | exception Invalid_argument _ -> ()

let test_parse_errors () =
  expect_invalid "";
  expect_invalid "not-a-header\nn 2\n";
  expect_invalid "ringshare-graph v1\nw 0 5\n";
  expect_invalid "ringshare-graph v1\nn 2\nw 7 5\n";
  expect_invalid "ringshare-graph v1\nn 2\nw 0 abc\n";
  expect_invalid "ringshare-graph v1\nn 2\ne 0 0\n";
  expect_invalid "ringshare-graph v1\nn 2\nbogus directive\n"

let test_file_io () =
  let g = Generators.ring_of_ints [| 4; 5; 6 |] in
  let path = Filename.temp_file "ringshare" ".graph" in
  Serial.save path g;
  let g' = Serial.load path in
  Sys.remove path;
  Alcotest.(check bool) "file roundtrip" true (roundtrip g')

(* The streaming writer against the whole-string one: [iter_lines]
   reassembled must equal [to_string] byte-for-byte, a file written by
   [save] (which streams) must parse back to the same graph as the
   in-memory string, and [digest] (streaming, chunked) must not depend
   on the adjacency backend. *)
let test_streaming_vs_whole () =
  let g =
    Generators.ring_of_ints (Array.init 500 (fun i -> 1 + ((i * 37) mod 100)))
  in
  let buf = Buffer.create 4096 in
  Serial.iter_lines g (fun l ->
      Buffer.add_string buf l;
      Buffer.add_char buf '\n');
  Alcotest.(check string) "iter_lines = to_string" (Serial.to_string g)
    (Buffer.contents buf);
  let path = Filename.temp_file "ringshare" ".graph" in
  Serial.save path g;
  let g_file = Serial.load path in
  Sys.remove path;
  let g_mem = Serial.of_string (Serial.to_string g) in
  Alcotest.(check bool) "file parse = string parse" true
    (Graph.n g_file = Graph.n g_mem
    && Graph.edges g_file = Graph.edges g_mem
    && Array.for_all2 Q.equal (Graph.weights g_file) (Graph.weights g_mem));
  Alcotest.(check string) "digest is backend-independent" (Serial.digest g)
    (Serial.digest (Graph.materialise g))

(* Digests are cache keys, so their bytes are part of the contract:
   these hex values were recorded before the chunk buffer was sized
   from the graph.  The large ring serialises past the 64 KB folding
   boundary, covering the digest-of-chunk-digests path. *)
let test_digest_pinned () =
  let small = Generators.ring_of_ints [| 3; 1; 2; 5 |] in
  let large =
    Generators.ring_of_ints (Array.init 5000 (fun i -> 1 + ((i * 37) mod 1000)))
  in
  Alcotest.(check bool) "large ring spans several chunks" true
    (String.length (Serial.to_string large) > 65536);
  Alcotest.(check string) "small ring digest" "4ca95db543df9dfe517838d81931a137"
    (Serial.digest small);
  Alcotest.(check string) "large ring digest" "08c8104056122d6fd14884b24ed282e2"
    (Serial.digest large)

let props =
  [
    Helpers.qtest ~count:60 "roundtrip on random graphs" (Helpers.graph_gen ())
      roundtrip;
    Helpers.qtest ~count:40 "roundtrip on rings" (Helpers.ring_gen ()) roundtrip;
  ]

let () =
  Alcotest.run "serial"
    [
      ( "unit",
        [
          Alcotest.test_case "roundtrip known" `Quick test_roundtrip_known;
          Alcotest.test_case "comments" `Quick test_parse_with_comments;
          Alcotest.test_case "default weight" `Quick test_unlisted_weight_defaults_zero;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "file io" `Quick test_file_io;
          Alcotest.test_case "streaming vs whole-file" `Quick
            test_streaming_vs_whole;
          Alcotest.test_case "digest bytes pinned" `Quick test_digest_pinned;
        ] );
      ("properties", props);
    ]
