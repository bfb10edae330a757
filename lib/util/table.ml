type align = Left | Right

type t = { headers : string array; aligns : align array; mutable rows : string array list }

let create ?aligns headers =
  let headers = Array.of_list headers in
  let aligns =
    match aligns with
    | Some a ->
        if List.length a <> Array.length headers then
          invalid_arg "Table.create: aligns/headers length mismatch";
        Array.of_list a
    | None -> Array.init (Array.length headers) (fun i -> if i = 0 then Left else Right)
  in
  { headers; aligns; rows = [] }

let add_row t cells =
  let n = Array.length t.headers in
  if List.length cells > n then invalid_arg "Table.add_row: more cells than headers";
  let row = Array.make n "" in
  List.iteri (fun i c -> row.(i) <- c) cells;
  t.rows <- row :: t.rows

let render t =
  let rows = List.rev t.rows in
  let n = Array.length t.headers in
  let widths = Array.map String.length t.headers in
  List.iter
    (fun row -> Array.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) row)
    rows;
  let pad i cell =
    let w = widths.(i) in
    let gap = String.make (w - String.length cell) ' ' in
    match t.aligns.(i) with Left -> cell ^ gap | Right -> gap ^ cell
  in
  let rtrim s =
    let len = ref (String.length s) in
    while !len > 0 && s.[!len - 1] = ' ' do
      decr len
    done;
    String.sub s 0 !len
  in
  let line cells = rtrim (String.concat "  " (List.init n (fun i -> pad i cells.(i)))) in
  let rule = Array.map (fun w -> String.make w '-') widths in
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer (line t.headers);
  Buffer.add_char buffer '\n';
  Buffer.add_string buffer (line rule);
  List.iter
    (fun row ->
      Buffer.add_char buffer '\n';
      Buffer.add_string buffer (line row))
    rows;
  Buffer.contents buffer

let print t =
  print_string (render t);
  print_newline ()

let float_cell ?(decimals = 4) v = Printf.sprintf "%.*f" decimals v

let percent_cell ?(decimals = 1) v =
  let pct = v *. 100. in
  if pct >= 0. then Printf.sprintf "+%.*f%%" decimals pct
  else Printf.sprintf "%.*f%%" decimals pct

let scientific_cell v = Printf.sprintf "%.3e" v

let series ~name ~xs ~ys =
  if Array.length xs <> Array.length ys then invalid_arg "Table.series: xs/ys length mismatch";
  let buffer = Buffer.create 128 in
  Array.iteri
    (fun i x -> Buffer.add_string buffer (Printf.sprintf "%s\t%g\t%g\n" name x ys.(i)))
    xs;
  Buffer.contents buffer

let sparkline values =
  if Array.length values = 0 then ""
  else begin
    let glyphs = [| " "; "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                    "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |] in
    let lo = Array.fold_left min values.(0) values in
    let hi = Array.fold_left max values.(0) values in
    let span = if hi -. lo < 1e-12 then 1. else hi -. lo in
    let buffer = Buffer.create (Array.length values * 3) in
    Array.iter
      (fun v ->
        let idx = int_of_float ((v -. lo) /. span *. 8.) in
        Buffer.add_string buffer glyphs.(max 0 (min 8 idx)))
      values;
    Buffer.contents buffer
  end
