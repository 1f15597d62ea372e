(* End-to-end checks of the rchls executable whose subject is what one
   run leaves on disk for the next: [explore --cache-dir] entries, read
   back by a second explore and by the daemon's disk tier.  The
   executable's path is the first argument. *)

module Request = Rchls_api.Request
module Response = Rchls_api.Response
module Corpus = Rchls_experiments.Corpus
module Explore = Rchls_experiments.Explore
module Server = Rchls_serve.Server
module Client = Rchls_serve.Client

let exe = ref ""

let check_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_dir "rchls-cli-cache" "" in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

(* Run the executable; its stdout lines, failing on a non-zero exit. *)
let run args =
  let out = Filename.temp_file "rchls-cli" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  let code = Sys.command (Filename.quote_command !exe args ~stdout:out ~stderr:Filename.null) in
  if code <> 0 then Alcotest.failf "rchls %s: exit %d" (String.concat " " args) code;
  In_channel.with_open_text out In_channel.input_lines

let responses lines = List.map (fun l -> check_ok "response" (Response.of_string l)) lines

(* A corpus of [count] graphs and one explore run over it with a cache
   directory: the corpus directory, the cache directory and the first
   run's responses. *)
let explored dir ~count =
  let corpus = Filename.concat dir "corpus" and cache = Filename.concat dir "cache" in
  ignore (run [ "corpus"; corpus; "--seed"; "7"; "--count"; string_of_int count ]);
  (corpus, cache, responses (run [ "explore"; corpus; "--cache-dir"; cache ]))

let test_second_run_reads_disk () =
  with_temp_dir @@ fun dir ->
  let corpus, cache, first = explored dir ~count:4 in
  let second = responses (run [ "explore"; corpus; "--cache-dir"; cache ]) in
  Alcotest.(check int) "one line per graph" 4 (List.length first);
  List.iter2
    (fun (a : Response.t) (b : Response.t) ->
      Alcotest.(check bool) "first run computes" true (a.cache = None);
      (match b.cache with
      | Some { tier = Response.Disk; _ } -> ()
      | _ -> Alcotest.fail "second run did not read the disk tier");
      Alcotest.(check (option string)) "same graph" a.id b.id;
      Alcotest.(check bool) "same payload" true (a.result = b.result))
    first second

(* The daemon's disk tier serves explore's entries: a served request
   for the same graph, library and plane has the same key. *)
let test_daemon_reads_explore_entries () =
  with_temp_dir @@ fun dir ->
  let corpus_dir, cache, computed = explored dir ~count:2 in
  let corpus = check_ok "corpus" (Corpus.load ~dir:corpus_dir) in
  let socket = Filename.concat dir "s.sock" in
  let server =
    check_ok "server start"
      (Server.start
         {
           (Server.default_config (Server.Unix_socket socket)) with
           Server.cache_dir = Some cache;
           domains = Some 1;
         })
  in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let c = check_ok "connect" (Client.connect_unix socket) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  List.iter2
    (fun (e : Corpus.entry) (cli : Response.t) ->
      let g = check_ok "graph" (Corpus.load_graph corpus e) in
      let lds, ads = Explore.plan g Rchls_charlib.Library.table1 in
      let job =
        Request.Explore
          {
            graph = Request.Inline (Rchls_dfg.Parse.to_text g);
            library = Request.Lib_default;
            lds;
            ads;
            approach = Request.Ours;
            scheduler = Request.Density;
          }
      in
      let served = check_ok "call" (Client.call c { Request.id = cli.id; job }) in
      (match served.cache with
      | Some { tier = Response.Disk; _ } -> ()
      | _ -> Alcotest.failf "%s: not served from explore's entry" e.graph_name);
      Alcotest.(check bool) "same payload" true (served.result = cli.result))
    corpus.entries computed

let () =
  let path = Sys.argv.(1) in
  exe := if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path;
  Unix.putenv "RCHLS_DOMAINS" "1";
  Alcotest.run ~argv:[| Sys.argv.(0) |] "cli"
    [
      ( "explore cache",
        [
          Alcotest.test_case "second run reads every graph from disk" `Quick
            test_second_run_reads_disk;
          Alcotest.test_case "daemon reads explore's entries" `Quick
            test_daemon_reads_explore_entries;
        ] );
    ]
