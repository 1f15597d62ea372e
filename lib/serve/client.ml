module Request = Rchls_api.Request
module Response = Rchls_api.Response

(* [fd] is owned here, not by the channels: [close] closes it exactly
   once.  Closing both channels would close the descriptor twice, and
   the second close could hit a file another thread opened in between
   under the same number. *)
type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  mutable closed : bool;
}

let ( let* ) = Result.bind

let connect sockaddr what =
  match
    let fd =
      Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0
    in
    (try Unix.connect fd sockaddr
     with e ->
       Unix.close fd;
       raise e);
    {
      fd;
      ic = Unix.in_channel_of_descr fd;
      oc = Unix.out_channel_of_descr fd;
      closed = false;
    }
  with
  | client -> Ok client
  | exception Unix.Unix_error (err, _, _) ->
    Error (Printf.sprintf "connect %s: %s" what (Unix.error_message err))

let connect_unix path = connect (Unix.ADDR_UNIX path) path

let connect_tcp ~host ~port =
  match
    try Unix.inet_addr_of_string host
    with Failure _ -> (Unix.gethostbyname host).h_addr_list.(0)
  with
  | inet ->
    connect (Unix.ADDR_INET (inet, port)) (Printf.sprintf "%s:%d" host port)
  | exception Not_found -> Error (Printf.sprintf "unknown host %S" host)

(* A receive timeout on the socket itself (SO_RCVTIMEO): a blocked
   [recv] then fails instead of hanging forever on a stuck or
   saturated daemon.  Non-positive values are ignored. *)
let set_receive_timeout t seconds =
  if seconds > 0. then
    Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO seconds

(* After [close] the descriptor's number may belong to another file, so
   the channels must not touch it again. *)
let send_raw t line =
  if t.closed then Error "send: connection closed"
  else
    try
      output_string t.oc line;
      output_char t.oc '\n';
      flush t.oc;
      Ok ()
    with Sys_error e -> Error ("send: " ^ e)

let send t req = send_raw t (Request.to_string req)

let recv_raw t =
  if t.closed then Error "recv: connection closed"
  else
    match input_line t.ic with
    | line -> Ok line
    | exception End_of_file -> Error "recv: connection closed by server"
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) ->
      Error "recv: timed out waiting for a response"
    | exception Unix.Unix_error (err, _, _) ->
      Error ("recv: " ^ Unix.error_message err)
    | exception Sys_error e -> Error ("recv: " ^ e)

let recv t =
  let* line = recv_raw t in
  Response.of_string line

let call t req =
  let* () = send t req in
  recv t

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try flush t.oc with Sys_error _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
