open Wmm_isa
open Wmm_model
open Wmm_litmus

type generated = { g_test : Test.t; g_cycle : Cycle.t option; g_canon : string }

exception Reject

module Uf = struct
  let create n = Array.init n Fun.id

  let rec find t i = if t.(i) = i then i else begin
    let r = find t t.(i) in
    t.(i) <- r;
    r
  end

  let union t i j =
    let ri = find t i and rj = find t j in
    if ri <> rj then t.(ri) <- rj
end

let loc_names = [| "x"; "y"; "z"; "w"; "a"; "b"; "c"; "d" |]

let compile arch (cycle : Cycle.t) : Test.t option =
  let open Cycle in
  let n = List.length cycle in
  if n < 2 then None
  else
    try
      let edges0 = Array.of_list cycle in
      let is_com = function Com _ -> true | Po _ -> false in
      (* Rotate so the cycle ends with a communication edge; threads
         then read off left to right. *)
      let r =
        if is_com edges0.(n - 1) then 0
        else begin
          let i = ref (-1) in
          Array.iteri (fun k e -> if !i < 0 && is_com e then i := k) edges0;
          if !i < 0 then raise Reject;
          (!i + 1) mod n
        end
      in
      let edge i = edges0.((i + r) mod n) in
      let dir i = src_dir (edge i) in
      let prev i = (i + n - 1) mod n in
      let next i = (i + 1) mod n in
      (* Event [i] is the source of edge [i]; direction chaining. *)
      for i = 0 to n - 1 do
        if dst_dir (edge i) <> dir (next i) then raise Reject
      done;
      (* Thread assignment: external com edges are the boundaries. *)
      let tid = Array.make n 0 in
      let t = ref 0 in
      for i = 0 to n - 2 do
        (match edge i with Com { ext = true; _ } -> incr t | _ -> ());
        tid.(i + 1) <- !t
      done;
      let nthreads = !t + 1 in
      for i = 0 to n - 1 do
        let j = next i in
        match edge i with
        | Po _ -> if tid.(i) <> tid.(j) then raise Reject
        | Com { ext = true; _ } -> if tid.(i) = tid.(j) then raise Reject
        | Com { ext = false; _ } -> if tid.(i) <> tid.(j) then raise Reject
      done;
      (* Locations: unify along com and same-location po edges, then
         distinct-location po edges must stay distinct. *)
      let uf = Uf.create n in
      for i = 0 to n - 1 do
        match edge i with
        | Com _ -> Uf.union uf i (next i)
        | Po p when p.same_loc -> Uf.union uf i (next i)
        | Po _ -> ()
      done;
      for i = 0 to n - 1 do
        match edge i with
        | Po p when not p.same_loc ->
            if Uf.find uf i = Uf.find uf (next i) then raise Reject
        | _ -> ()
      done;
      let loc_of = Array.make n (-1) in
      let loc_tbl = Hashtbl.create 8 in
      for i = 0 to n - 1 do
        let root = Uf.find uf i in
        let l =
          match Hashtbl.find_opt loc_tbl root with
          | Some l -> l
          | None ->
              let l = Hashtbl.length loc_tbl in
              Hashtbl.add loc_tbl root l;
              l
        in
        loc_of.(i) <- l
      done;
      let nlocs = Hashtbl.length loc_tbl in
      if nlocs > Array.length loc_names then raise Reject;
      (* Per-location writes, in event order. *)
      let writes = Array.make nlocs [] in
      for i = n - 1 downto 0 do
        if dir i = W then writes.(loc_of.(i)) <- i :: writes.(loc_of.(i))
      done;
      Array.iter (fun ws -> if List.length ws > 2 then raise Reject) writes;
      (* Coherence constraints: explicit co edges, plus rf;fr through
         a read (it reads the first write and is fr-before the
         second). *)
      let co_cons = ref [] in
      for i = 0 to n - 1 do
        (match edge i with
        | Com { c = Co; _ } -> co_cons := (i, next i) :: !co_cons
        | _ -> ());
        if dir i = R then
          match (edge (prev i), edge i) with
          | Com { c = Rf; _ }, Com { c = Fr; _ } ->
              let w1 = prev i and w2 = next i in
              if w1 = w2 then raise Reject;
              co_cons := (w1, w2) :: !co_cons
          | _ -> ()
      done;
      let co_order =
        Array.map
          (fun ws ->
            match ws with
            | [] | [ _ ] -> ws
            | [ a; b ] ->
                let ab = List.mem (a, b) !co_cons and ba = List.mem (b, a) !co_cons in
                if ab && not ba then [ a; b ]
                else if ba && not ab then [ b; a ]
                else raise Reject
            | _ -> raise Reject)
          writes
      in
      (* Values: one variable per event plus a constant-zero node;
         rf edges and data dependencies equate variables; a read with
         no incoming rf takes its fr-target's coherence predecessor
         (or zero).  Writes then get their coherence position. *)
      let vuf = Uf.create (n + 1) in
      for i = 0 to n - 1 do
        match edge i with
        | Com { c = Rf; _ } -> Uf.union vuf i (next i)
        | Po { kind = Po_dep Data; _ } -> Uf.union vuf i (next i)
        | _ -> ()
      done;
      for i = 0 to n - 1 do
        if dir i = R then
          let rf_in = match edge (prev i) with Com { c = Rf; _ } -> true | _ -> false in
          match edge i with
          | Com { c = Fr; _ } when not rf_in ->
              let w = next i in
              let pred =
                match co_order.(loc_of.(w)) with
                | [ a; b ] when b = w -> Some a
                | _ -> None
              in
              Uf.union vuf i (match pred with Some p -> p | None -> n)
          | _ -> ()
      done;
      let assigned = Hashtbl.create 8 in
      Hashtbl.add assigned (Uf.find vuf n) 0;
      Array.iter
        (fun ws ->
          List.iteri
            (fun k w ->
              let root = Uf.find vuf w in
              let v = k + 1 in
              match Hashtbl.find_opt assigned root with
              | Some v' -> if v' <> v then raise Reject
              | None -> Hashtbl.add assigned root v)
            ws)
        co_order;
      let value_of i =
        match Hashtbl.find_opt assigned (Uf.find vuf i) with
        | Some v -> v
        | None -> raise Reject
      in
      (* Emission. *)
      let next_reg = Array.make nthreads 1 in
      let fresh t =
        let r = next_reg.(t) in
        next_reg.(t) <- r + 1;
        r
      in
      let read_reg = Array.make n (-1) in
      let rev_threads = Array.make nthreads [] in
      let emit t instrs = rev_threads.(t) <- List.rev_append instrs rev_threads.(t) in
      for i = 0 to n - 1 do
        let t = tid.(i) in
        let po_in = match edge (prev i) with Po p -> Some p | Com _ -> None in
        let annot =
          match po_in with
          | Some p when p.d_an <> An_plain -> p.d_an
          | _ -> ( match edge i with Po p -> p.s_an | Com _ -> An_plain)
        in
        let loc = loc_of.(i) in
        let src_reg = read_reg.(prev i) in
        let pre, addr =
          match po_in with
          | Some { kind = Po_dep Addr; _ } ->
              let rt = fresh t in
              ( [ Test.xor_self ~dst:rt ~src:src_reg; Test.addi ~dst:rt ~src:rt loc ],
                Instr.Reg rt )
          | Some { kind = Po_dep Ctrl; _ } -> (Test.ctrl_then src_reg, Instr.Imm loc)
          | Some { kind = Po_dep Ctrl_fence; _ } ->
              ( Test.ctrl_then src_reg
                @ [ (match arch with Arch.Armv8 -> Test.isb_i | Arch.Power7 -> Test.isync_i) ],
                Instr.Imm loc )
          | Some { kind = Po_fence b; _ } -> ([ Instr.Barrier b ], Instr.Imm loc)
          | _ -> ([], Instr.Imm loc)
        in
        let order =
          match (dir i, annot) with
          | R, An_acq -> Instr.Acquire
          | W, An_rel -> Instr.Release
          | _ -> Instr.Plain
        in
        let access =
          match dir i with
          | R ->
              let rd = fresh t in
              read_reg.(i) <- rd;
              Instr.Load { dst = rd; addr; order }
          | W ->
              let src =
                match po_in with
                | Some { kind = Po_dep Data; _ } -> Instr.Reg src_reg
                | _ -> Instr.Imm (value_of i)
              in
              Instr.Store { src; addr; order }
        in
        emit t (pre @ [ access ])
      done;
      let threads =
        Array.to_list (Array.map (fun l -> Array.of_list (List.rev l)) rev_threads)
      in
      let condition =
        List.filter_map
          (fun i -> if dir i = R then Some ((tid.(i), read_reg.(i)), value_of i) else None)
          (List.init n Fun.id)
      in
      let mem_condition =
        List.filter_map
          (fun l ->
            match co_order.(l) with
            | [ _; last ] -> Some (l, value_of last)
            | _ -> None)
          (List.init nlocs Fun.id)
      in
      Some
        (Test.make ~name:(Cycle.name arch cycle)
           ~description:("synthesized: " ^ Cycle.to_string cycle)
           ~locations:(Array.sub loc_names 0 nlocs)
           ~threads ~condition ~mem_condition ~expected:[] ())
    with Reject -> None

(* ------------------------------------------------------------------ *)
(* The exclusive-access family                                        *)
(* ------------------------------------------------------------------ *)

let cas_tests () =
  let thread =
    [|
      Test.ldxr ~dst:1 ~loc:0;
      Test.addi ~dst:2 ~src:1 1;
      Test.stxr ~status:3 ~src:2 ~loc:0;
    |]
  in
  let opts = [ None; Some 0; Some 1 ] in
  let mems = [ None; Some 1; Some 2 ] in
  let tests = ref [] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          List.iter
            (fun s0 ->
              List.iter
                (fun s1 ->
                  List.iter
                    (fun m ->
                      if not (a = None && b = None && s0 = None && s1 = None && m = None)
                      then begin
                        let part c = function
                          | None -> []
                          | Some v -> [ c ^ string_of_int v ]
                        in
                        let name =
                          String.concat "+"
                            ("CAS"
                            :: List.concat
                                 [ part "a" a; part "b" b; part "p" s0; part "q" s1; part "m" m ])
                        in
                        let cond key = function None -> [] | Some v -> [ (key, v) ] in
                        let condition =
                          List.concat
                            [
                              cond (0, 1) a; cond (1, 1) b; cond (0, 3) s0; cond (1, 3) s1;
                            ]
                        in
                        let mem_condition = match m with None -> [] | Some v -> [ (0, v) ] in
                        tests :=
                          Test.make ~name
                            ~description:"synthesized: exclusive increment race"
                            ~locations:[| "x" |]
                            ~threads:[ thread; thread ]
                            ~condition ~mem_condition ~expected:[] ()
                          :: !tests
                      end)
                    mems)
                opts)
            opts)
        opts)
    opts;
  List.rev !tests

(* ------------------------------------------------------------------ *)
(* Family assembly                                                    *)
(* ------------------------------------------------------------------ *)

(* Library names are reserved: a generated test may keep one only when
   it is canonically identical to the library test of that name, so
   that names stay unambiguous across the union of both sets. *)
let library_canons =
  lazy
    (let tbl = Hashtbl.create 64 in
     List.iter
       (fun (t : Test.t) -> Hashtbl.replace tbl t.Test.name (Canon.of_test t))
       Library.all;
     tbl)

let uniquify gens =
  let lib = Lazy.force library_canons in
  let seen = Hashtbl.create 512 in
  let rec claim name canon =
    match Hashtbl.find_opt seen name with
    | None when
        (match Hashtbl.find_opt lib name with
        | Some lib_canon -> lib_canon = canon
        | None -> true) ->
        Hashtbl.add seen name 1;
        name
    | prior ->
        let k = match prior with Some k -> k + 1 | None -> 2 in
        Hashtbl.replace seen name k;
        claim (Printf.sprintf "%s~%d" name k) canon
  in
  List.map
    (fun g ->
      let name = claim g.g_test.Test.name g.g_canon in
      if name = g.g_test.Test.name then g
      else { g with g_test = { g.g_test with Test.name = name } })
    gens

let generate ?(max_edges = Cycle.default_max_edges) arch =
  let seen = Hashtbl.create 4096 in
  let keep test cycle =
    let key = Canon.of_test test in
    if Hashtbl.mem seen key then None
    else begin
      Hashtbl.add seen key ();
      Some { g_test = test; g_cycle = cycle; g_canon = key }
    end
  in
  let base =
    List.filter_map
      (fun c ->
        match compile arch c with None -> None | Some t -> keep t (Some c))
      (Cycle.enumerate ~max_edges arch)
  in
  let cas =
    if arch = Arch.Armv8 then List.filter_map (fun t -> keep t None) (cas_tests ()) else []
  in
  uniquify (base @ cas)

let battery ~max_edges ~limit arch =
  List.filteri
    (fun i _ -> limit = 0 || i < limit)
    (List.map (fun g -> g.g_test) (generate ~max_edges arch))

let verdict_models arch = [ Axiomatic.Sc; Axiomatic.Tso; Axiomatic.model_for_arch arch ]

let with_verdicts arch (t : Test.t) =
  {
    t with
    Test.expected =
      List.map (fun m -> (m, Check.axiomatic_allowed m t)) (verdict_models arch);
  }

let covers family (t : Test.t) =
  let key = Canon.of_test t in
  List.find_opt (fun g -> g.g_canon = key) family

let verdict_table ?max_edges archs =
  let b = Buffer.create (1 lsl 16) in
  List.iter
    (fun arch ->
      List.iter
        (fun g ->
          let t = with_verdicts arch g.g_test in
          List.iter
            (fun (model, allowed) ->
              Printf.bprintf b "%s|%s|%s|%s\n" t.Test.name (Arch.name arch)
                (Axiomatic.model_name model)
                (if allowed then "allow" else "forbid"))
            t.Test.expected)
        (generate ?max_edges arch))
    archs;
  Buffer.contents b
