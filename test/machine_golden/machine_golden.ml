(* The operational machine's outcome golden, shared by its generator
   (test/gen_machine_golden.ml) and its check (test_relaxed.ml).

   Each model runs on its own machine, [Check.machine_config].  The
   golden has one line per (test, model) pair for the library under
   every model and for the bound-4 synthesized families under their
   verdict models:
     <family>|<test>|<model>|<outcome count>|<digest of the outcomes>
   and one line per (architecture, verdict model) for the bound-6
   families, whose count is the family's total outcome count and whose
   digest covers the per-test lines:
     bound6/<arch>|<n> tests|<model>|<outcome count>|<digest> *)

open Wmm_isa
open Wmm_model
open Wmm_litmus
open Wmm_machine

let archs = Arch.[ Armv8; Power7 ]

let outcomes model (t : Test.t) = Relaxed.enumerate (Check.machine_config model) t.Test.program

let render (o : Relaxed.outcome) =
  String.concat " "
    (List.map (fun ((tid, r), v) -> Printf.sprintf "%d:r%d=%d" tid r v) o.Relaxed.registers
    @ List.map (fun (l, v) -> Printf.sprintf "[%d]=%d" l v) o.Relaxed.memory)

let digest outs = Digest.to_hex (Digest.string (String.concat "\n" (List.map render outs)))

let pair_line family (t : Test.t) model outs =
  Printf.sprintf "%s|%s|%s|%d|%s" family t.Test.name (Axiomatic.model_name model)
    (List.length outs) (digest outs)

(* Every (test, model, outcomes) triple of [arch]'s synthesized family
   at [max_edges], model by model. *)
let family ?max_edges arch =
  let tests =
    List.map
      (fun (g : Wmm_synth.Synth.generated) -> g.Wmm_synth.Synth.g_test)
      (Wmm_synth.Synth.generate ?max_edges arch)
  in
  List.concat_map
    (fun model -> List.map (fun t -> (t, model, outcomes model t)) tests)
    (Wmm_synth.Synth.verdict_models arch)

let library_lines () =
  List.concat_map
    (fun t -> List.map (fun m -> pair_line "library" t m (outcomes m t)) Axiomatic.all_models)
    Library.all

let bound4_lines () =
  List.concat_map
    (fun arch ->
      List.map
        (fun (t, m, outs) -> pair_line ("bound4/" ^ Arch.name arch) t m outs)
        (family ~max_edges:4 arch))
    archs

(* The per-model summary lines of one bound-6 family. *)
let bound6_lines arch triples =
  List.map
    (fun model ->
      let mine = List.filter (fun (_, m, _) -> m = model) triples in
      let total = List.fold_left (fun acc (_, _, outs) -> acc + List.length outs) 0 mine in
      let per_test = List.map (fun (t, m, outs) -> pair_line "" t m outs) mine in
      Printf.sprintf "bound6/%s|%d tests|%s|%d|%s" (Arch.name arch) (List.length mine)
        (Axiomatic.model_name model) total
        (Digest.to_hex (Digest.string (String.concat "\n" per_test))))
    (Wmm_synth.Synth.verdict_models arch)
