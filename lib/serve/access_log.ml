module Telemetry = Rchls_util.Telemetry

type t = {
  path : string;
  max_bytes : int;
  mutex : Mutex.t;
  buf : Buffer.t;  (* reused per write, guarded by [mutex] *)
  mutable oc : out_channel option;  (* None after close or a failed reopen *)
  mutable size : int;
}

type record = {
  id : string option;
  kind : string;
  tier : string option;
  queue_ns : int;
  exec_ns : int;
  total_ns : int;
  bytes : int;
  status : string;
}

let open_log ?(max_bytes = 64 * 1024 * 1024) path =
  match open_out_gen [ Open_append; Open_creat ] 0o644 path with
  | oc ->
    let size = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
    Ok
      {
        path;
        max_bytes;
        mutex = Mutex.create ();
        buf = Buffer.create 256;
        oc = Some oc;
        size;
      }
  | exception Sys_error e -> Error e

(* Wall-clock epoch nanoseconds: log records are correlated with the
   outside world, unlike the duration fields (monotonic deltas). *)
let wall_ns () = Int64.to_int (Int64.of_float (Unix.gettimeofday () *. 1e9))

(* The record is rendered by hand into the shared buffer: one log line
   costs a handful of buffer appends, not a JSON value allocation —
   this sits on the daemon's per-request hot path. *)
let add_str_field b name v =
  Buffer.add_string b ",\"";
  Buffer.add_string b name;
  Buffer.add_string b "\":\"";
  Rchls_util.Json.add_escaped b v;
  Buffer.add_char b '"'

(* Allocation-free decimal rendering (vs a string_of_int string per
   field); durations and sizes are non-negative by construction. *)
let add_int b v =
  if v <= 0 then Buffer.add_char b '0'
  else begin
    let digits = Bytes.create 19 in
    let rec go v i =
      if v = 0 then i
      else begin
        Bytes.set digits i (Char.chr (48 + (v mod 10)));
        go (v / 10) (i + 1)
      end
    in
    let n = go v 0 in
    for i = n - 1 downto 0 do
      Buffer.add_char b (Bytes.get digits i)
    done
  end

let add_int_field b name v =
  Buffer.add_string b ",\"";
  Buffer.add_string b name;
  Buffer.add_string b "\":";
  add_int b v

let render b r =
  Buffer.clear b;
  Buffer.add_string b "{\"ts_ns\":";
  add_int b (wall_ns ());
  (match r.id with None -> () | Some id -> add_str_field b "id" id);
  add_str_field b "kind" r.kind;
  (match r.tier with
  | None -> Buffer.add_string b ",\"tier\":null"
  | Some tier -> add_str_field b "tier" tier);
  add_int_field b "queue_ns" r.queue_ns;
  add_int_field b "exec_ns" r.exec_ns;
  add_int_field b "total_ns" r.total_ns;
  add_int_field b "bytes" r.bytes;
  add_str_field b "status" r.status;
  Buffer.add_string b "}\n"

let rotate t oc =
  flush oc;
  close_out_noerr oc;
  (try Sys.rename t.path (t.path ^ ".1") with Sys_error _ -> ());
  t.size <- 0;
  t.oc <-
    (match open_out_gen [ Open_append; Open_creat ] 0o644 t.path with
    | oc -> Some oc
    | exception Sys_error _ -> None);
  Telemetry.incr "serve.access_log.rotations"

let write t r =
  Mutex.lock t.mutex;
  (try
     render t.buf r;
     let len = Buffer.length t.buf in
     (match t.oc with
     | Some oc when t.size > 0 && t.size + len > t.max_bytes -> rotate t oc
     | _ -> ());
     match t.oc with
     | None -> ()
     | Some oc ->
       Buffer.output_buffer oc t.buf;
       t.size <- t.size + len;
       Telemetry.incr "serve.access_log.records"
   with Sys_error _ -> ());
  Mutex.unlock t.mutex

let flush t =
  Mutex.lock t.mutex;
  (try Option.iter Stdlib.flush t.oc with Sys_error _ -> ());
  Mutex.unlock t.mutex

let close t =
  Mutex.lock t.mutex;
  (try
     Option.iter
       (fun oc ->
         Stdlib.flush oc;
         close_out_noerr oc)
       t.oc
   with Sys_error _ -> ());
  t.oc <- None;
  Mutex.unlock t.mutex
