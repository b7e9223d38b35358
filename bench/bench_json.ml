(* Top-level key updates for BENCH_sched.json-style files: one JSON object
   whose members are written by several harnesses (bench main, the
   explorer bench, the serving example).  Each writer owns some keys; a
   re-run must replace its keys in place, not append a second copy. *)

(* Split the body of a top-level object into its raw member texts, each
   ["\"key\": value"] exactly as written, so members owned by other
   writers keep their formatting byte for byte. *)
let members body =
  let n = String.length body in
  let out = ref [] and start = ref 0 and depth = ref 0 in
  let in_str = ref false and esc = ref false in
  let cut i =
    let m = String.trim (String.sub body !start (i - !start)) in
    if m <> "" then out := m :: !out;
    start := i + 1
  in
  String.iteri
    (fun i c ->
      if !in_str then begin
        if !esc then esc := false
        else if c = '\\' then esc := true
        else if c = '"' then in_str := false
      end
      else
        match c with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' -> decr depth
        | ',' when !depth = 0 -> cut i
        | _ -> ())
    body;
  cut n;
  List.rev !out

(* The key of a raw member: the text between its first two quotes (the
   writers never escape quotes in key names). *)
let member_key m =
  match String.index_from_opt m 1 '"' with
  | Some j when m.[0] = '"' -> String.sub m 1 (j - 1)
  | _ -> ""

(* A JSON array of pre-rendered rows, one row per line. *)
let array rows = "[\n    " ^ String.concat ",\n    " rows ^ "\n  ]"

let set_keys file keys =
  let body =
    if Sys.file_exists file then begin
      let ic = open_in_bin file in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let s = String.trim s in
      String.sub s 1 (String.length s - 2)
    end
    else ""
  in
  let fresh = List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) keys in
  let kept =
    List.filter
      (fun m -> not (List.mem_assoc (member_key m) keys))
      (members body)
  in
  let oc = open_out_bin file in
  Printf.fprintf oc "{\n  %s\n}\n" (String.concat ",\n  " (kept @ fresh));
  close_out oc
