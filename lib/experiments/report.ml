module Json = Rchls_util.Json
module Telemetry = Rchls_util.Telemetry
module Design = Rchls_core.Design
module Engine = Rchls_core.Engine
module Library = Rchls_charlib.Library
module Resource = Rchls_charlib.Resource
module Dfg = Rchls_dfg.Dfg
module Schema = Rchls_api.Schema

(* Same FNV-1a construction as [Netlist.fingerprint], applied to the
   canonical text form so the digest is stable across process runs and
   independent of in-memory representation. *)
let fingerprint s = Rchls_util.Fnv.hash_string s

let fingerprint_hex s = Rchls_util.Fnv.to_hex (fingerprint s)

let graph_json g =
  Json.Obj
    [
      ("name", Json.Str (Dfg.name g));
      ("nodes", Json.Int (Dfg.node_count g));
      ("edges", Json.Int (Dfg.edge_count g));
      ("fingerprint", Json.Str (fingerprint_hex (Rchls_dfg.Parse.to_text g)));
    ]

let library_json lib =
  Json.Obj
    [
      ("resources", Json.Int (List.length (Library.resources lib)));
      ("fingerprint", Json.Str (fingerprint_hex (Library.to_text lib)));
    ]

(* The result shapes are owned by [Rchls_api.Response] since the serve
   daemon landed: one encoder produces the run-report [result] field,
   the wire responses and the disk-cache entries.  The API forms
   extend the historical ones with a "kind" discriminator; every
   historical field is unchanged. *)
let design_json d =
  Rchls_api.Response.design_result_to_json (Ok (Service.summary_of_design d))

let failure_json (f : Engine.failure) =
  Rchls_api.Response.design_result_to_json (Error (Service.failure_of_core f))

let sweep_json cells =
  Rchls_api.Response.payload_to_json (Service.payload_of_sweep cells)

let telemetry_json () =
  let counters =
    List.map (fun (n, v) -> (n, Json.Int v)) (Telemetry.counters ())
  in
  let hs = Telemetry.histograms () in
  let timers =
    List.map (fun (n, (h : Telemetry.hist)) -> (n, Json.Int (Int64.to_int h.sum_ns))) hs
  in
  let hists = List.map (fun (n, h) -> (n, Telemetry.hist_to_json h)) hs in
  Json.Obj
    [
      ("counters", Json.Obj counters);
      ("timers_ns", Json.Obj timers);
      ("histograms", Json.Obj hists);
    ]

let make ~command ?(args = []) ?graph ?library ~result () =
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  Json.Obj
    (("schema", Json.Str Schema.run_report)
     :: ("command", Json.Str command)
     :: (match args with [] -> [] | _ -> [ ("args", Json.Obj args) ])
    @ opt "graph" graph_json graph
    @ opt "library" library_json library
    @ [ ("result", result); ("telemetry", telemetry_json ()) ])

let validate j =
  let ( let* ) = Result.bind in
  let str_field name =
    match Option.bind (Json.member name j) Json.to_string_opt with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "missing or non-string %S field" name)
  in
  let* tag = str_field "schema" in
  let* _ = str_field "command" in
  if tag <> Schema.run_report then
    Error (Printf.sprintf "unexpected schema tag %S (want %S)" tag Schema.run_report)
  else
    match Json.member "telemetry" j with
    | None -> Error "missing \"telemetry\" object"
    | Some t ->
      let sub name =
        match Json.member name t with
        | Some (Json.Obj _) -> Ok ()
        | _ -> Error (Printf.sprintf "telemetry: missing %S object" name)
      in
      let* () = sub "counters" in
      let* () = sub "timers_ns" in
      let* () = sub "histograms" in
      if Json.member "result" j = None then Error "missing \"result\" field"
      else Ok ()
