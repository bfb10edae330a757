(* The certificate goldens, shared by their generator
   (test/gen_cert_golden.ml) and their check (test_cert.ml).

   - The fixtures (data/cert_golden.txt) hold the full text of a few
     certificates: one "== <test> <model> ==" section per case.
   - The digests (data/cert_digests.txt) pin every certificate that
     `litmus --certify` writes for the library, then every bound-4
     ARMv8 and POWER test under its verdict models, one line each:
       <family> <test> <model> <md5 of the certificate text>
     A verdict with no certificate prints "skipped" in place of the
     digest. *)

open Wmm_isa
open Wmm_model
open Wmm_litmus

let co_storm =
  let st v = Instr.Store { src = Instr.Imm v; addr = Instr.Imm 0; order = Instr.Plain } in
  let ld r = Instr.Load { dst = r; addr = Instr.Imm 0; order = Instr.Plain } in
  Test.make ~name:"co-storm" ~description:"six writes, one observer thread"
    ~locations:[| "x" |]
    ~threads:[ [| st 1; st 2 |]; [| st 3; st 4 |]; [| st 5; st 6 |]; [| ld 0; ld 1 |] ]
    ~condition:[ ((3, 0), 5); ((3, 1), 6) ]
    ~expected:(List.map (fun m -> (m, true)) Axiomatic.all_models)
    ()

(* Every (test, model) pair of the fixtures, in file order. *)
let fixture_cases =
  List.concat_map
    (fun t -> List.map (fun m -> (t, m)) Axiomatic.all_models)
    (List.map (fun n -> Option.get (Library.by_name n)) [ "SB"; "MP"; "IRIW" ] @ [ co_storm ])

(* A digest line and the certificate text it digests ([None] when
   skipped). *)
let digest_entry family (t : Test.t) model =
  let text =
    match Wmm_certify.Emit.litmus model t with
    | Ok cert -> Some (Wmm_cert.Certificate.to_string cert)
    | Error _ -> None
  in
  ( Printf.sprintf "%s %s %s %s" family t.Test.name (Axiomatic.model_name model)
      (match text with Some s -> Digest.to_hex (Digest.string s) | None -> "skipped"),
    text )

let digest_entries () =
  let library =
    List.concat_map
      (fun t -> List.map (digest_entry "library" t) (Check.models_for ~parsed:false t))
      Library.all
  in
  let bound4 =
    List.concat_map
      (fun arch ->
        let tests =
          List.map
            (fun (g : Wmm_synth.Synth.generated) -> g.Wmm_synth.Synth.g_test)
            (Wmm_synth.Synth.generate ~max_edges:4 arch)
        in
        List.concat_map
          (fun model -> List.map (fun t -> digest_entry ("bound4/" ^ Arch.name arch) t model) tests)
          (Wmm_synth.Synth.verdict_models arch))
      Arch.[ Armv8; Power7 ]
  in
  library @ bound4

let digest_lines () = List.map fst (digest_entries ())
