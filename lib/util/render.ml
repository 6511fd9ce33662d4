module Table = struct
  type t = { title : string; columns : string list; mutable rows : string list list }

  let create ~title ~columns = { title; columns; rows = [] }

  let add_row t row =
    if List.length row <> List.length t.columns then
      invalid_arg "Table.add_row: row width mismatch";
    t.rows <- row :: t.rows

  let add_float_row t ?(precision = 4) (label, values) =
    let cell v =
      if Float.is_nan v then "-" else Printf.sprintf "%.*g" precision v
    in
    add_row t (label :: List.map cell values)

  let columns t = t.columns
  let rows t = List.rev t.rows

  let to_string t =
    let rows = List.rev t.rows in
    let all = t.columns :: rows in
    let ncols = List.length t.columns in
    let widths = Array.make ncols 0 in
    List.iter
      (fun row ->
        List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
      all;
    let buffer = Buffer.create 256 in
    let render_row row =
      List.iteri
        (fun i cell ->
          Buffer.add_string buffer (if i = 0 then "| " else " | ");
          Buffer.add_string buffer cell;
          Buffer.add_string buffer (String.make (widths.(i) - String.length cell) ' '))
        row;
      Buffer.add_string buffer " |\n"
    in
    let rule () =
      Array.iter
        (fun w ->
          Buffer.add_char buffer '+';
          Buffer.add_string buffer (String.make (w + 2) '-'))
        widths;
      Buffer.add_string buffer "+\n"
    in
    Buffer.add_string buffer ("== " ^ t.title ^ " ==\n");
    rule ();
    render_row t.columns;
    rule ();
    List.iter render_row rows;
    rule ();
    Buffer.contents buffer

  let print t = Out.print_string (to_string t)
end

module Series = struct
  type t = { label : string; points : (float * float) array }

  let make label points = { label; points }
end

let plot (series : Series.t list) =
  let width = 64 and height = 16 in
  let all_points = List.concat_map (fun s -> Array.to_list s.Series.points) series in
  match all_points with
  | [] -> "(empty plot)\n"
  | _ ->
      let xs = List.map fst all_points and ys = List.map snd all_points in
      let fold f = function [] -> 0.0 | x :: rest -> List.fold_left f x rest in
      let x_min = fold Float.min xs and x_max = fold Float.max xs in
      let y_min = Float.min 0.0 (fold Float.min ys) and y_max = fold Float.max ys in
      let x_span = if x_max > x_min then x_max -. x_min else 1.0 in
      let y_span = if y_max > y_min then y_max -. y_min else 1.0 in
      let grid = Array.make_matrix height width ' ' in
      let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@'; '%'; '&' |] in
      List.iteri
        (fun si s ->
          let glyph = glyphs.(si mod Array.length glyphs) in
          Array.iter
            (fun (x, y) ->
              let col = int_of_float ((x -. x_min) /. x_span *. Float.of_int (width - 1)) in
              let row = int_of_float ((y -. y_min) /. y_span *. Float.of_int (height - 1)) in
              let row = height - 1 - row in
              if row >= 0 && row < height && col >= 0 && col < width then
                grid.(row).(col) <- glyph)
            s.Series.points)
        series;
      let buffer = Buffer.create (width * height) in
      Array.iteri
        (fun i line ->
          let y = y_max -. (Float.of_int i /. Float.of_int (height - 1) *. y_span) in
          Buffer.add_string buffer (Printf.sprintf "%10.3g |" y);
          Array.iter (Buffer.add_char buffer) line;
          Buffer.add_char buffer '\n')
        grid;
      Buffer.add_string buffer (String.make 11 ' ');
      Buffer.add_char buffer '+';
      Buffer.add_string buffer (String.make width '-');
      Buffer.add_char buffer '\n';
      Buffer.add_string buffer
        (Printf.sprintf "%10s  %-10.4g%*s%10.4g\n" "" x_min (width - 20) "" x_max);
      List.iteri
        (fun si s ->
          Buffer.add_string buffer
            (Printf.sprintf "%12s%c = %s\n" "" glyphs.(si mod Array.length glyphs) s.Series.label))
        series;
      Buffer.contents buffer

let print_figure ~title ?(x_label = "x") ?(y_label = "y") series =
  Out.printf "== %s ==\n" title;
  List.iter
    (fun (s : Series.t) ->
      Out.printf "-- series: %s  (%s, %s)\n" s.Series.label x_label y_label;
      Array.iter (fun (x, y) -> Out.printf "%14.6g %14.6g\n" x y) s.Series.points)
    series;
  Out.print_string (plot series)
