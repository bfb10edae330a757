(* Regenerates the certificate goldens asserted by test_cert:
   `dune exec test/gen_cert_golden.exe > test/data/cert_golden.txt`
   `dune exec test/gen_cert_golden.exe -- --digests > test/data/cert_digests.txt`
   Both formats are documented in cert_golden/cert_golden.ml. *)

open Wmm_model
open Wmm_litmus

let fixtures () =
  List.iter
    (fun ((t : Test.t), model) ->
      match Wmm_certify.Emit.litmus model t with
      | Ok cert ->
          Printf.printf "== %s %s ==\n%s" t.Test.name (Axiomatic.model_name model)
            (Wmm_cert.Certificate.to_string cert)
      | Error msg ->
          failwith
            (Printf.sprintf "%s under %s: %s" t.Test.name (Axiomatic.model_name model) msg))
    Cert_golden.fixture_cases

let () =
  match Array.to_list Sys.argv with
  | [ _ ] -> fixtures ()
  | [ _; "--digests" ] -> List.iter print_endline (Cert_golden.digest_lines ())
  | _ ->
      prerr_endline "usage: gen_cert_golden [--digests]";
      exit 2
