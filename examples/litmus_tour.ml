(* A tour of the weak-memory semantic layer: run classic litmus tests
   on the operational machine and compare with the axiomatic models.

   Run with:  dune exec examples/litmus_tour.exe *)

open Wmm_isa
open Wmm_model
open Wmm_litmus

let show_test name =
  let test = Option.get (Library.by_name name) in
  Printf.printf "%s - %s\n" test.Test.name test.Test.description;
  print_string (Asm.program Arch.Armv8 test.Test.program);
  (* What does each model say, and does the operational machine agree? *)
  List.iter
    (fun model ->
      let v = Check.run_exhaustive model (Check.machine_config model) test in
      Printf.printf "  %-6s %-9s %s\n"
        (Axiomatic.model_name model)
        (if v.Check.axiomatic_allowed then "allowed" else "forbidden")
        (if v.Check.observed then "reached by the machine" else "not reached by the machine"))
    Axiomatic.all_models;
  print_newline ()

let () =
  (* The two most famous weak behaviours... *)
  show_test "SB";
  show_test "MP";
  (* ...and how fences/dependencies forbid them. *)
  show_test "MP+dmb+addr";
  show_test "MP+rel+acq";
  (* Multi-copy atomicity separates ARMv8 from POWER. *)
  show_test "IRIW+addrs";

  (* The full battery: the operational machine must never reach an
     outcome the architecture's model forbids. *)
  let sound = ref 0 and total = ref 0 in
  List.iter
    (fun test ->
      List.iter
        (fun model ->
          if Test.expected_under test model <> None then begin
            let v = Check.run_exhaustive model (Check.machine_config model) test in
            incr total;
            if Check.sound v then incr sound else print_endline (Check.describe v)
          end)
        Axiomatic.all_models)
    Library.all;
  Printf.printf "battery: %d/%d verdicts sound\n" !sound !total
