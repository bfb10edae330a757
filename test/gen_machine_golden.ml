(* Regenerates the operational machine's outcome golden asserted by
   test_relaxed:
   `dune exec test/gen_machine_golden.exe > test/data/machine_golden.txt`
   The line format is documented in machine_golden/machine_golden.ml. *)

let () =
  List.iter print_endline (Machine_golden.library_lines ());
  List.iter print_endline (Machine_golden.bound4_lines ());
  List.iter
    (fun arch ->
      List.iter print_endline
        (Machine_golden.bound6_lines arch (Machine_golden.family arch)))
    Machine_golden.archs
