module Library = Rchls_charlib.Library
module Benchmarks = Rchls_dfg.Benchmarks
module Parse = Rchls_dfg.Parse
module Request = Rchls_api.Request
module Resource = Rchls_charlib.Resource
module Dfg = Rchls_dfg.Dfg

let ( let* ) = Result.bind

let read_file path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> Ok text
  | exception Sys_error msg -> Error (Printf.sprintf "cannot read %S: %s" path msg)
  | exception End_of_file -> Error (Printf.sprintf "cannot read %S: it shrank while read" path)

let load_graph spec =
  match Benchmarks.find spec with
  | Some g -> Ok g
  | None ->
    if Sys.file_exists spec then
      let* text = read_file spec in
      Parse.of_text text
    else
      Error
        (Printf.sprintf "unknown benchmark %S (known: %s) and no such file" spec
           (String.concat ", " (List.map fst Benchmarks.all)))

let load_library = function
  | None -> Ok Library.table1
  | Some path ->
    if Sys.file_exists path then
      let* text = read_file path in
      Library.of_text text
    else Error (Printf.sprintf "no such library file %S" path)

let graph_of_source = function
  | Request.Named spec -> load_graph spec
  | Request.Inline text -> Parse.of_text text

let library_of_source = function
  | Request.Lib_default -> Ok Library.table1
  | Request.Lib_file path -> load_library (Some path)
  | Request.Lib_inline text -> Library.of_text text

let covers g lib =
  let offered cls =
    List.exists (fun (r : Resource.t) -> r.op_class = cls) (Library.resources lib)
  in
  match List.find_opt (fun (cls, _) -> not (offered cls)) (Dfg.count_by_class g) with
  | None -> Ok ()
  | Some (cls, _) ->
    let needs (n : Dfg.node) = Rchls_dfg.Op.resource_class n.op = cls in
    Error
      (Printf.sprintf "library has no %s version, needed by node %s"
         (Resource.class_name cls)
         (List.find needs (Dfg.nodes g)).name)
