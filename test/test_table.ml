open Wmm_util

let test_render_alignment () =
  let t = Table.create [ "name"; "value" ] in
  Table.add_row t [ "a"; "1" ];
  Table.add_row t [ "long-name"; "12345" ];
  let rendered = Table.render t in
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check int) "header + rule + 2 rows" 4 (List.length lines);
  (* Right-aligned numeric column: the last characters line up. *)
  let last_line = List.nth lines 3 in
  Alcotest.(check bool) "value right aligned" true
    (String.length last_line > 0 && last_line.[String.length last_line - 1] = '5')

let test_row_padding () =
  let t = Table.create [ "a"; "b"; "c" ] in
  Table.add_row t [ "only" ];
  let rendered = Table.render t in
  Alcotest.(check bool) "renders" true (String.length rendered > 0)

let test_row_overflow_rejected () =
  let t = Table.create [ "a" ] in
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Table.add_row: more cells than headers") (fun () ->
      Table.add_row t [ "1"; "2" ])

let test_cells () =
  Alcotest.(check string) "float" "1.2346" (Table.float_cell 1.23456);
  Alcotest.(check string) "float decimals" "1.2" (Table.float_cell ~decimals:1 1.23456);
  Alcotest.(check string) "percent positive" "+3.1%" (Table.percent_cell 0.031);
  Alcotest.(check string) "percent negative" "-12.5%" (Table.percent_cell (-0.125))

let test_series () =
  let s = Table.series ~name:"spark" ~xs:[| 1.; 2. |] ~ys:[| 0.9; 0.8 |] in
  Alcotest.(check string) "tsv lines" "spark\t1\t0.9\nspark\t2\t0.8\n" s

let test_series_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Table.series: xs/ys length mismatch")
    (fun () -> ignore (Table.series ~name:"x" ~xs:[| 1. |] ~ys:[||]))

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Table.sparkline [||]);
  let s = Table.sparkline [| 0.; 1. |] in
  Alcotest.(check bool) "two glyphs" true (String.length s > 0)

let suite =
  [
    Alcotest.test_case "render alignment" `Quick test_render_alignment;
    Alcotest.test_case "row padding" `Quick test_row_padding;
    Alcotest.test_case "row overflow rejected" `Quick test_row_overflow_rejected;
    Alcotest.test_case "cell formatting" `Quick test_cells;
    Alcotest.test_case "series" `Quick test_series;
    Alcotest.test_case "series mismatch" `Quick test_series_mismatch;
    Alcotest.test_case "sparkline" `Quick test_sparkline;
  ]
