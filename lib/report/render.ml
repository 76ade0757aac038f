open Engine

let table fmt ~header ~rows () =
  let all = header :: rows in
  let cols = List.length header in
  let width i =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row i with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init cols width in
  let print_row row =
    List.iteri
      (fun i cell ->
        let w = List.nth widths i in
        Format.fprintf fmt "%s%s  " cell
          (String.make (max 0 (w - String.length cell)) ' '))
      row;
    Format.fprintf fmt "@."
  in
  print_row header;
  Format.fprintf fmt "%s@."
    (String.make (List.fold_left ( + ) (2 * cols) widths) '-');
  List.iter print_row rows

let series_table fmt ~title ~x_label ~series =
  Format.fprintf fmt "@.%s@.%s@." title (String.make (String.length title) '=');
  let xs =
    List.sort_uniq compare
      (List.concat_map
         (fun s -> List.map fst (Stats.Series.points s))
         series)
  in
  let header = x_label :: List.map Stats.Series.name series in
  let rows =
    List.map
      (fun x ->
        Printf.sprintf "%.0f" x
        :: List.map
             (fun s ->
               match Stats.Series.y_at s ~x with
               | Some y -> Printf.sprintf "%.1f" y
               | None -> "-")
             series)
      xs
  in
  table fmt ~header ~rows ()

let bar v ~max:m ~width =
  if m <= 0. then ""
  else begin
    let n = int_of_float (Float.round (v /. m *. float_of_int width)) in
    String.make (max 0 (min width n)) '#'
  end

let section fmt title =
  Format.fprintf fmt "@.%s@.%s@." title (String.make (String.length title) '-')

(* An ASCII Gantt chart of trace spans: one row per span, bars positioned
   proportionally between the earliest start and the latest finish. *)
let timeline fmt ~width (spans : Trace.span list) =
  match spans with
  | [] -> ()
  | first :: _ ->
      let t0 =
        List.fold_left (fun acc s -> min acc s.Trace.start) first.Trace.start
          spans
      in
      let t1 =
        List.fold_left (fun acc s -> max acc s.Trace.finish)
          first.Trace.finish spans
      in
      let total = max 1 (Engine.Time.diff t1 t0) in
      let pos t = Engine.Time.diff t t0 * width / total in
      let label_w =
        List.fold_left (fun acc s -> max acc (String.length s.Trace.label)) 0
          spans
      in
      List.iter
        (fun s ->
          let a = pos s.Trace.start and b = max (pos s.Trace.start + 1) (pos s.Trace.finish) in
          let line = Bytes.make width ' ' in
          for i = a to min (width - 1) (b - 1) do
            Bytes.set line i '#'
          done;
          Format.fprintf fmt "%-*s |%s| %a@." label_w s.Trace.label
            (Bytes.to_string line) Engine.Time.pp_us
            (Engine.Time.diff s.Trace.finish s.Trace.start))
        spans;
      Format.fprintf fmt "%-*s  0%*s@." label_w "" width
        (Engine.Time.to_string total)
