(* Golden CLI transcript: runs the rchls executable named on the command
   line over a fixed list of invocations — the plain help of the command
   group and of every subcommand, deterministic runs of each subcommand,
   and the error exits — and prints, per invocation, the exit code, the
   stdout and the stderr bytes.  Wall-clock figures (run-report timers
   and histogram quantiles, the --stats timer rows) are masked; every
   other byte is pinned.  The dune rule diffs the output against
   golden/cli.expected.

   Runs happen in a fresh scratch directory (removed afterwards) with
   RCHLS_DOMAINS=1 and no OCAMLRUNPARAM, stdin from /dev/null. *)

let exe = ref ""

(* --- masking --------------------------------------------------------- *)

(* A pretty-printed run report: every value under "timers_ns" and every
   "*_ns" field (histogram quantiles) becomes <ns>. *)
let mask_report text =
  let in_timers = ref false in
  let mask_line line =
    let t = String.trim line in
    if String.ends_with ~suffix:"\"timers_ns\": {" t then begin
      in_timers := true;
      line
    end
    else if !in_timers && String.length t > 0 && t.[0] = '}' then begin
      in_timers := false;
      line
    end
    else
      match String.index_opt line ':' with
      | Some i when String.length t > 0 && t.[0] = '"' ->
        let key = String.trim (String.sub line 0 i) in
        if !in_timers || String.ends_with ~suffix:"_ns\"" key then
          let comma = if String.ends_with ~suffix:"," t then "," else "" in
          String.sub line 0 (i + 1) ^ " <ns>" ^ comma
        else line
      | _ -> line
  in
  String.concat "\n" (List.map mask_line (String.split_on_char '\n' text))

(* A --stats table: borders collapse to "+-+", rows lose their padding,
   durations become <t> (histogram rows keep their sample count). *)
let mask_stats text =
  let is_duration v =
    List.exists (fun u -> String.ends_with ~suffix:u v) [ " ns"; " us"; " ms"; " s" ]
  in
  let mask_line line =
    let n = String.length line in
    if n > 0 && line.[0] = '+' then "+-+"
    else if n > 3 && line.[0] = '|' && line.[n - 1] = '|' then
      match String.split_on_char '|' (String.sub line 1 (n - 2)) with
      | [ name; value ] ->
        let value = String.trim value in
        let value =
          if String.starts_with ~prefix:"n=" value then
            List.hd (String.split_on_char ' ' value) ^ " <t>"
          else if is_duration value then "<t>"
          else value
        in
        Printf.sprintf "| %s | %s |" (String.trim name) value
      | _ -> line
    else line
  in
  String.concat "\n" (List.map mask_line (String.split_on_char '\n' text))

(* --- running --------------------------------------------------------- *)

let read_all path = In_channel.with_open_bin path In_channel.input_all

let child_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         not
           (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv
           || String.starts_with ~prefix:"RCHLS_DOMAINS=" kv))
  |> List.cons "RCHLS_DOMAINS=1"
  |> Array.of_list

let run args =
  let out = Unix.openfile "stdout.txt" [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let err = Unix.openfile "stderr.txt" [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let inp = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let pid =
    Unix.create_process_env !exe
      (Array.of_list ("rchls" :: args))
      (child_env ()) inp out err
  in
  List.iter Unix.close [ out; err; inp ];
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s -> 128 + s
    | Unix.WSTOPPED s -> 256 + s
  in
  (code, read_all "stdout.txt", read_all "stderr.txt")

let section name text =
  if text <> "" then begin
    Printf.printf "-- %s\n%s" name text;
    if not (String.ends_with ~suffix:"\n" text) then
      print_string "\n(no newline at end)\n"
  end

(* One transcript entry: the command line, its exit code, its output
   streams (each through [mask]) and the contents of [files] it wrote. *)
let entry ?(mask = Fun.id) ?(files = []) args =
  let code, out, err = run args in
  Printf.printf "$ rchls %s\nexit %d\n" (String.concat " " args) code;
  section "stdout" (mask out);
  section "stderr" (mask err);
  List.iter
    (fun f ->
      if Sys.file_exists f then begin
        section ("file " ^ f) (read_all f);
        Sys.remove f
      end)
    files;
  print_newline ()

let subcommands =
  [
    "synth"; "anneal"; "sweep"; "characterize"; "library"; "bench"; "experiment";
    "fuzz"; "corpus"; "explore"; "serve"; "request"; "top";
  ]

let fig4 = [ "synth"; "fig4"; "--ld"; "8"; "--ad"; "300" ]
let fir16 cmd = [ cmd; "fir16"; "--ld"; "12"; "--ad"; "10" ]
let anneal = fir16 "anneal" @ [ "--moves"; "200" ]
let sweep =
  [ "sweep"; "diffeq"; "--lds"; "5,6"; "--ads"; "7,11"; "--approach"; "combined" ]
let json = [ "--report"; "json" ]

let transcript () =
  entry [ "--help=plain" ];
  List.iter (fun c -> entry [ c; "--help=plain" ]) subcommands;
  (* synth, with each output mode *)
  entry fig4;
  entry (fig4 @ [ "--trace" ]);
  entry ~mask:mask_report (fig4 @ json);
  entry ~mask:mask_stats (fig4 @ [ "--stats"; "--check" ]);
  entry ~files:[ "fig4.dot" ] (fig4 @ [ "--dot"; "fig4.dot" ]);
  entry (fig4 @ [ "--trace-out"; "t.json" ]);
  entry (fig4 @ [ "--trace-out"; "t.jsonl" ]);
  entry [ "synth"; "fir16"; "--ld"; "5"; "--ad"; "3" ];
  entry ~mask:mask_report ([ "synth"; "fir16"; "--ld"; "5"; "--ad"; "3" ] @ json);
  (* the other subcommands *)
  entry anneal;
  entry ~mask:mask_report (anneal @ json);
  entry sweep;
  entry ~mask:mask_report (sweep @ json);
  entry [ "characterize" ];
  entry [ "library" ];
  entry [ "bench" ];
  entry [ "bench"; "ewf" ];
  entry [ "experiment"; "table1" ];
  entry ~mask:mask_report [ "experiment"; "table1"; "--report"; "json" ];
  entry [ "fuzz"; "--cases"; "5" ];
  entry ~mask:mask_report [ "fuzz"; "--cases"; "5"; "--report"; "json" ];
  entry [ "corpus"; "corpus"; "--count"; "4" ];
  entry [ "explore"; "fig4" ];
  entry ~mask:mask_stats [ "explore"; "fig4"; "--stats"; "--check" ];
  (* error exits *)
  entry [ "synth"; "nosuch"; "--ld"; "1"; "--ad"; "1" ];
  entry [ "synth"; "fig4" ];
  entry (fig4 @ [ "--scheduler"; "density-reference" ]);
  (* parameters below their lower limits *)
  entry [ "synth"; "fir16"; "--ld"; "0"; "--ad"; "10" ];
  entry [ "synth"; "fig4"; "--ld"; "5"; "--ad"; "0" ];
  entry [ "sweep"; "fig4"; "--lds"; "0,5"; "--ads"; "3" ];
  entry [ "explore"; "fig4"; "--ads"; "4,-1" ];
  entry (fir16 "anneal" @ [ "--chains=-3" ]);
  entry (fir16 "anneal" @ [ "--exchange=-1" ]);
  entry (fir16 "anneal" @ [ "--moves=-5" ]);
  entry [ "bench"; "nosuch" ];
  entry [ "experiment"; "nosuch" ];
  entry [ "library"; "-L"; "nosuch.lib" ];
  entry [ "request"; "--socket"; "missing.sock" ];
  entry [ "top"; "--socket"; "missing.sock" ];
  (* a library without multipliers, for graphs that multiply *)
  Out_channel.with_open_bin "addonly.lib" (fun oc ->
      output_string oc "add1 \"Adder 1\" add rca 1 2 0.999\n");
  entry (fir16 "synth" @ [ "-L"; "addonly.lib" ]);
  entry (fir16 "anneal" @ [ "-L"; "addonly.lib" ]);
  entry [ "sweep"; "fir16"; "--lds"; "12"; "--ads"; "10"; "-L"; "addonly.lib" ];
  entry [ "explore"; "fir16"; "-L"; "addonly.lib" ];
  (* a library whose add1 and mul1 reliabilities are not numbers *)
  Out_channel.with_open_bin "nan.lib" (fun oc ->
      output_string oc
        "add1 \"Adder 1\" add rca 1 2 nan\n\
         mul1 \"Multiplier 1\" mul csmul 2 2 nan\n\
         mul2 \"Multiplier 2\" mul lfmul 4 1 0.969\n");
  entry [ "synth"; "fir16"; "--ld"; "12"; "--ad"; "40"; "-L"; "nan.lib" ];
  (* files that cannot be written *)
  entry (fig4 @ [ "--dot"; "/nonexistent/x.dot" ]);
  entry (fig4 @ [ "--trace-out"; "/nonexistent/t.json" ])

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let () =
  let path = Sys.argv.(1) in
  exe := if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path;
  let dir = Filename.temp_dir "rchls-cli" "" in
  let home = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir home;
      remove_tree dir)
    transcript
