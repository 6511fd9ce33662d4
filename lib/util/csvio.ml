let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let escape_field s =
  if needs_quoting s then begin
    let buffer = Buffer.create (String.length s + 2) in
    Buffer.add_char buffer '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buffer "\"\"" else Buffer.add_char buffer c)
      s;
    Buffer.add_char buffer '"';
    Buffer.contents buffer
  end
  else s

let encode_rows rows =
  let buffer = Buffer.create 1024 in
  List.iter
    (fun row ->
      Buffer.add_string buffer (String.concat "," (List.map escape_field row));
      Buffer.add_char buffer '\n')
    rows;
  Buffer.contents buffer

let write_rows ~path rows =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (encode_rows rows))

let table_rows table = Render.Table.columns table :: Render.Table.rows table

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let save_table ~dir ~basename table =
  ensure_dir dir;
  let path = Filename.concat dir (basename ^ ".csv") in
  write_rows ~path (table_rows table);
  path
