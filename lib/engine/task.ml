open Wmm_util

type 'a t = { key : string; label : string; run : Rng.t -> 'a }

let default_label key =
  if String.length key <= 60 then key else String.sub key 0 57 ^ "..."

let make ~key ?label run =
  let label = match label with Some l -> l | None -> default_label key in
  { key; label; run }

let pure ~key ?label f = make ~key ?label (fun _rng -> f ())

let rng_for key =
  (* Fold the 128-bit MD5 of the key into an int so the stream
     depends on the key's full content, then take one split to
     decorrelate from any generator the caller might have built from
     the same integer. *)
  let digest = Digest.string key in
  let h = ref 0 in
  String.iter (fun c -> h := (!h * 257) + Char.code c) digest;
  Rng.split (Rng.create (!h land max_int))
