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

type 'a input = Builtin of string * 'a | Text of string

let graph_input = function
  | Request.Inline text -> Ok (Text text)
  | Request.Named spec -> (
    match Benchmarks.find spec with
    | Some g -> Ok (Builtin (spec, g))
    | None ->
      if Sys.file_exists spec then Result.map (fun text -> Text text) (read_file spec)
      else
        Error
          (Printf.sprintf "unknown benchmark %S (known: %s) and no such file" spec
             (String.concat ", " (List.map fst Benchmarks.all))))

let library_input = function
  | Request.Lib_default -> Ok (Builtin ("table1", Library.table1))
  | Request.Lib_file path ->
    if Sys.file_exists path then Result.map (fun text -> Text text) (read_file path)
    else Error (Printf.sprintf "no such library file %S" path)
  | Request.Lib_inline text -> Ok (Text text)

let value_of parse = function Builtin (_, v) -> Ok v | Text text -> parse text

let load_graph spec =
  let* input = graph_input (Request.Named spec) in
  value_of Parse.of_text input

let load_library path =
  let source =
    match path with None -> Request.Lib_default | Some path -> Request.Lib_file path
  in
  let* input = library_input source in
  value_of Library.of_text input

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
