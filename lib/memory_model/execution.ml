type t = {
  events : Event.t array;
  po : Bitrel.t;
  rf : Bitrel.t;
  co : Bitrel.t;
  addr : Bitrel.t;
  data : Bitrel.t;
  ctrl : Bitrel.t;
  rmw : Bitrel.t;
}

let event t id = t.events.(id)

let select t p =
  Array.to_list t.events |> List.filter p |> List.map (fun (e : Event.t) -> e.Event.id)

let reads t = select t Event.is_read
let writes t = select t Event.is_write

(* A read r "from-reads" a write w when w is co-after the write r read
   from; exclude the identity that arises from rf^-1;co hitting the
   same write. *)
let fr_of ~rf ~co = Bitrel.remove_diagonal (Bitrel.compose (Bitrel.inverse rf) co)

let external_pairs t =
  let n = Array.length t.events in
  let r = Bitrel.create n in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if t.events.(a).Event.tid <> t.events.(b).Event.tid then Bitrel.add r a b
    done
  done;
  r

let final_memory t =
  let module IM = Map.Make (Int) in
  let last = ref IM.empty in
  (* The co-maximal write for location l is the write to l with no
     outgoing co edge. *)
  let has_successor w =
    let exception Found in
    try
      Bitrel.iter_succ t.co w (fun _ -> raise Found);
      false
    with Found -> true
  in
  List.iter
    (fun w ->
      let e = t.events.(w) in
      match Event.loc e with
      | None -> ()
      | Some l ->
          if not (has_successor w) then last := IM.add l (Option.get (Event.value e)) !last)
    (writes t);
  (* Locations whose only write is the init write still appear because
     init writes are events. *)
  IM.bindings !last

let well_formed t =
  let problem = ref None in
  let fail msg = if !problem = None then problem := Some msg in
  (* rf edges relate a write to a same-location same-value read; count
     each read's sources on the way. *)
  let sources = Array.make (Array.length t.events) 0 in
  Bitrel.iter
    (fun w r ->
      let ew = t.events.(w) and er = t.events.(r) in
      if not (Event.is_write ew) then fail "rf source is not a write";
      if not (Event.is_read er) then fail "rf target is not a read";
      if not (Event.same_loc ew er) then fail "rf relates different locations";
      if Event.value ew <> Event.value er then fail "rf relates different values";
      sources.(r) <- sources.(r) + 1)
    t.rf;
  (* Every read has exactly one rf source. *)
  List.iter
    (fun r -> if sources.(r) <> 1 then fail "read without unique rf source")
    (reads t);
  (* co is irreflexive, same-location, writes only. *)
  Bitrel.iter
    (fun a b ->
      let ea = t.events.(a) and eb = t.events.(b) in
      if a = b then fail "co is reflexive";
      if not (Event.is_write ea && Event.is_write eb) then fail "co relates non-writes";
      if not (Event.same_loc ea eb) then fail "co relates different locations")
    t.co;
  if not (Bitrel.is_acyclic t.co) then fail "co is cyclic";
  (* co totality per location. *)
  let ws = writes t in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a < b && Event.same_loc t.events.(a) t.events.(b) then
            if not (Bitrel.mem t.co a b || Bitrel.mem t.co b a) then
              fail "co not total on a location")
        ws)
    ws;
  match !problem with None -> Ok () | Some msg -> Error msg
