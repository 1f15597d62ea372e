module Request = Rchls_api.Request
module Response = Rchls_api.Response
module Schema = Rchls_api.Schema
module Json = Rchls_util.Json
module Fnv = Rchls_util.Fnv
module Pool = Rchls_util.Pool
module Diskcache = Rchls_util.Diskcache
module Memo = Rchls_util.Memo
module Telemetry = Rchls_util.Telemetry
module Trace = Rchls_util.Trace
module Service = Rchls_experiments.Service

type addr = Unix_socket of string | Tcp of string * int

type config = {
  addr : addr;
  cache_dir : string option;
  cache_entries : int;
  domains : int option;
  batch_max : int;
  queue_max : int;
  metrics : addr option;
  access_log : (string * int) option;
}

let default_config addr =
  {
    addr;
    cache_dir = None;
    cache_entries = 4096;
    domains = None;
    batch_max = 8;
    queue_max = 64;
    metrics = None;
    access_log = None;
  }

(* [fd] is owned here, not by the channels: [close_conn] closes it
   exactly once, under [write_mutex], and sets [closed] so that no
   late response reaches a descriptor number another thread may since
   have opened.  A failed write sets [closed] too (the peer is gone),
   leaving the close to [close_conn].  [lost] is set, under
   [write_mutex], once a response to the connection has been dropped. *)
type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  write_mutex : Mutex.t;
  mutable closed : bool;
  mutable lost : bool;
}

type job = {
  conn : conn;
  id : string option;
  req : Request.job;
  key : int64 option;
  arrival : int64;  (* monotonic ns at request-line receipt *)
}

type t = {
  config : config;
  service : Service.t;
  listen_fd : Unix.file_descr;
  bound : Unix.sockaddr;
  disk : Diskcache.t option;
  mem : (int64, string) Memo.t;
  queue : job Queue.t;
  queue_mutex : Mutex.t;
  queue_cond : Condition.t;
  running : bool Atomic.t;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  conns_mutex : Mutex.t;
  access : Access_log.t option;
  metrics_fd : Unix.file_descr option;
  metrics_bound : Unix.sockaddr option;
  mutable accept_thread : Thread.t option;
  mutable scheduler_thread : Thread.t option;
  mutable metrics_thread : Thread.t option;
  mutable reader_threads : Thread.t list;
  readers_mutex : Mutex.t;
  mutable stopped : bool;
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* --- wire output ---------------------------------------------------- *)

(* A connection counts one disconnect, the first time a response to it
   is dropped because its peer is gone: a failed write, a write after
   the reader saw the peer hang up, or a job skipped for a closed
   connection.  Call under [write_mutex]. *)
let lose conn =
  if not conn.lost then begin
    conn.lost <- true;
    Telemetry.incr "serve.disconnects"
  end

(* A dead peer must not kill the server: write failures only mean the
   response has no reader anymore (SIGPIPE is ignored, see [start]).
   Every written line is counted — response bytes are a first-class
   serving metric — and its byte count comes back so the caller can
   access-log it; [None] means nothing was written (the connection was
   already closed or the write failed). *)
let write_line conn line =
  let written =
    locked conn.write_mutex (fun () ->
        let ok =
          (not conn.closed)
          &&
          try
            output_string conn.oc line;
            output_char conn.oc '\n';
            flush conn.oc;
            true
          with Sys_error _ | Unix.Unix_error _ ->
            conn.closed <- true;
            false
        in
        if not ok then lose conn;
        ok)
  in
  if written then begin
    let len = String.length line + 1 in
    Telemetry.incr "serve.responses";
    Telemetry.add "serve.response_bytes" len;
    Some len
  end
  else None

let respond conn (r : Response.t) = write_line conn (Response.to_string r)

let respond_error ?timing conn ~id code message =
  respond conn
    { Response.id; result = Error { code; message }; cache = None; timing }

(* --- per-request accounting ------------------------------------------ *)

let elapsed_ns since = Int64.to_int (Int64.sub (Telemetry.now_ns ()) since)

(* One access-log record + the [serve.request] rolling window per
   decoded request; admin kinds ([ping]/[stats]/[health]) are kept out
   of both so [serve.requests] always equals the number of log
   records covering the same interval.  [written] is what [write_line]
   reported: a response nobody received is logged with status
   [disconnected] and zero bytes, and counted in [serve.undelivered]. *)
let account t ~arrival ~id ~kind ~tier ~queue_ns ~exec_ns ~status written =
  let bytes, status =
    match written with
    | Some bytes -> (bytes, status)
    | None ->
      Telemetry.incr "serve.undelivered";
      (0, "disconnected")
  in
  let total_ns = elapsed_ns arrival in
  Telemetry.observe_window "serve.request" (Int64.of_int total_ns);
  Option.iter
    (fun log ->
      Access_log.write log
        { Access_log.id; kind; tier; queue_ns; exec_ns; total_ns; bytes; status })
    t.access

(* --- the two-tier response cache ------------------------------------ *)

let cache_find t key =
  match Memo.find t.mem key with
  | Some payload -> Some (Response.Memory, payload)
  | None ->
    Option.bind t.disk (fun d ->
        Option.bind (Diskcache.find d key) (fun text ->
            Option.map
              (fun payload ->
                Memo.add t.mem key payload;
                (Response.Disk, payload))
              (Response.payload_of_disk_entry text)))

let cache_store t key payload_json =
  Memo.add t.mem key payload_json;
  Option.iter (fun d -> Diskcache.add d key (Response.disk_entry payload_json)) t.disk

(* --- request handling ----------------------------------------------- *)

let queue_depth t = locked t.queue_mutex (fun () -> Queue.length t.queue)

let enqueue t job =
  locked t.queue_mutex (fun () ->
      if Queue.length t.queue >= t.config.queue_max then false
      else begin
        Queue.add job t.queue;
        Telemetry.gauge_set "serve.queue_depth" (Queue.length t.queue);
        Condition.signal t.queue_cond;
        true
      end)

(* [stats]/[health] answer inline from the serving thread — they must
   work precisely when the queue is saturated, which is when queueing
   them would starve them.  A [stats] answer flushes the access log
   first so a reader correlating the snapshot with the log sees every
   record the counters already cover. *)
let answer_admin conn ~arrival ~id payload =
  let exec_ns = elapsed_ns arrival in
  let timing =
    Some { Response.queue_ns = 0; exec_ns; total_ns = elapsed_ns arrival }
  in
  ignore (respond conn { Response.id; result = Ok payload; cache = None; timing })

let handle_line t conn line =
  let arrival = Telemetry.now_ns () in
  if String.trim line <> "" then
    match Request.of_string line with
    | Error msg ->
      Telemetry.incr "serve.malformed";
      let code =
        if Schema.is_version_error msg then Response.Unsupported_version
        else Response.Bad_request
      in
      ignore (respond_error conn ~id:None code msg)
    | Ok { id; job = Request.Ping } ->
      Telemetry.incr "serve.pings";
      answer_admin conn ~arrival ~id Response.Pong
    | Ok { id; job = Request.Stats } ->
      Telemetry.incr "serve.admin.stats";
      Option.iter Access_log.flush t.access;
      answer_admin conn ~arrival ~id (Service.stats_payload ())
    | Ok { id; job = Request.Health } ->
      Telemetry.incr "serve.admin.health";
      let depth = queue_depth t in
      answer_admin conn ~arrival ~id
        (Service.health_payload
           ~healthy:(Atomic.get t.running && depth < t.config.queue_max)
           ~queue_depth:depth ~queue_max:t.config.queue_max
           ~in_flight:(Telemetry.gauge "serve.inflight"))
    | Ok { id; job } -> (
      Telemetry.incr "serve.requests";
      let kind = Request.job_kind job in
      match Service.cache_key job with
      | Error msg ->
        account t ~arrival ~id ~kind ~tier:None ~queue_ns:0 ~exec_ns:0
          ~status:(Response.error_code_name Response.Bad_request)
          (respond_error conn ~id Response.Bad_request msg)
      | Ok key -> (
        match Option.bind key (cache_find t) with
        | Some (tier, payload_json) ->
          Telemetry.incr
            (match tier with
            | Response.Memory -> "serve.hits.memory"
            | Response.Disk -> "serve.hits.disk");
          let exec_ns = elapsed_ns arrival in
          let timing =
            { Response.queue_ns = 0; exec_ns; total_ns = elapsed_ns arrival }
          in
          account t ~arrival ~id ~kind ~tier:(Some (Response.tier_name tier)) ~queue_ns:0
            ~exec_ns ~status:"ok"
            (write_line conn
               (Response.assemble_raw ~id
                  ~cache:
                    (Some { Response.tier; key = Fnv.to_hex (Option.get key) })
                  ~timing payload_json))
        | None ->
          Telemetry.incr "serve.misses";
          if not (enqueue t { conn; id; req = job; key; arrival }) then begin
            Telemetry.incr "serve.overloaded";
            account t ~arrival ~id ~kind ~tier:None ~queue_ns:0 ~exec_ns:0
              ~status:(Response.error_code_name Response.Overloaded)
              (respond_error conn ~id Response.Overloaded
                 (Printf.sprintf "job queue is full (%d queued jobs)"
                    t.config.queue_max))
          end))

(* --- the batch scheduler -------------------------------------------- *)

let job_attrs job =
  ("kind", Trace.Str (Request.job_kind job.req))
  :: (match job.id with None -> [] | Some id -> [ ("id", Trace.Str id) ])

let run_batch t batch =
  Telemetry.incr "serve.batches";
  let dequeued = Telemetry.now_ns () in
  Telemetry.gauge_set "serve.inflight" (List.length batch);
  let results =
    (* Jobs fan across the pool; each job itself runs sequentially
       ([~domains:1]) so a batch never oversubscribes the machine.
       Determinism: every job is a pure function of its request, so
       neither the batch composition nor the pool width can change a
       payload.  A job whose client has already hung up is not run:
       its answer could only be discarded.  [closed] is read without
       the write lock; a stale [false] costs one computed answer that
       [write_line] then declines to write. *)
    Pool.map ?domains:t.config.domains
      (fun job ->
        if job.conn.closed then None
        else
          let started = Telemetry.now_ns () in
          let result =
            Trace.with_span "serve.job" ~attrs:(job_attrs job) (fun () ->
                Service.run_job ~service:t.service ~domains:1 job.req)
          in
          Some (result, Int64.sub (Telemetry.now_ns ()) started))
      batch
  in
  Telemetry.gauge_set "serve.inflight" 0;
  List.iter2
    (fun job outcome ->
      let kind = Request.job_kind job.req in
      let queue_ns = Int64.to_int (Int64.sub dequeued job.arrival) in
      Telemetry.observe_window "serve.queue_wait" (Int64.of_int queue_ns);
      match outcome with
      | None ->
        locked job.conn.write_mutex (fun () -> lose job.conn);
        account t ~arrival:job.arrival ~id:job.id ~kind ~tier:None ~queue_ns
          ~exec_ns:0 ~status:"disconnected" None
      | Some (result, exec) -> (
        let exec_ns = Int64.to_int exec in
        Telemetry.observe_window "serve.exec" exec;
        let timing () =
          { Response.queue_ns; exec_ns; total_ns = elapsed_ns job.arrival }
        in
        match result with
        | Error e ->
          account t ~arrival:job.arrival ~id:job.id ~kind ~tier:None ~queue_ns
            ~exec_ns
            ~status:(Response.error_code_name e.Response.code)
            (respond job.conn
               {
                 Response.id = job.id;
                 result = Error e;
                 cache = None;
                 timing = Some (timing ());
               })
        | Ok payload ->
          let payload_json = Json.to_string (Response.payload_to_json payload) in
          Option.iter (fun key -> cache_store t key payload_json) job.key;
          account t ~arrival:job.arrival ~id:job.id ~kind ~tier:None ~queue_ns
            ~exec_ns ~status:"ok"
            (write_line job.conn
               (Response.assemble_raw ~id:job.id ~cache:None ~timing:(timing ())
                  payload_json))))
    batch results

let scheduler_loop t =
  let rec next () =
    let batch =
      locked t.queue_mutex (fun () ->
          while Queue.is_empty t.queue && Atomic.get t.running do
            Condition.wait t.queue_cond t.queue_mutex
          done;
          let rec drain acc n =
            if n = 0 || Queue.is_empty t.queue then List.rev acc
            else drain (Queue.pop t.queue :: acc) (n - 1)
          in
          let batch = drain [] t.config.batch_max in
          Telemetry.gauge_set "serve.queue_depth" (Queue.length t.queue);
          batch)
    in
    match batch with
    | [] -> if Atomic.get t.running then next () else ()
    | batch ->
      run_batch t batch;
      next ()
  in
  next ()

(* --- the metrics scrape endpoint ------------------------------------- *)

let contains_from s needle =
  let n = String.length needle and m = String.length s in
  let rec scan i = i + n <= m && (String.sub s i n = needle || scan (i + 1)) in
  scan 0

(* Just enough HTTP/1.0 for a scraper: read the request head, answer
   one 200 with Content-Length, close.  No channels — raw fd I/O, so
   close() is unambiguous. *)
let http_request_path fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 512 in
  let rec fill () =
    if
      Buffer.length buf < 8192
      && not (contains_from (Buffer.contents buf) "\r\n\r\n")
      && not (contains_from (Buffer.contents buf) "\n\n")
    then
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        fill ()
      | exception Unix.Unix_error _ -> ()
  in
  fill ();
  let head = Buffer.contents buf in
  let line =
    match String.index_opt head '\n' with
    | Some i -> String.sub head 0 i
    | None -> head
  in
  match String.split_on_char ' ' (String.trim line) with
  | _meth :: path :: _ -> path
  | _ -> "/"

let http_respond fd ~content_type body =
  let msg =
    Printf.sprintf
      "HTTP/1.0 200 OK\r\n\
       Content-Type: %s\r\n\
       Content-Length: %d\r\n\
       Connection: close\r\n\
       \r\n\
       %s"
      content_type (String.length body) body
  in
  let rec send off =
    if off < String.length msg then
      match Unix.write_substring fd msg off (String.length msg - off) with
      | 0 -> ()
      | n -> send (off + n)
      | exception Unix.Unix_error _ -> ()
  in
  send 0

(* One thread serves every scrape, so a client that connects and then
   sends nothing must not hold it: each scrape socket gives up on a
   read after this many seconds, and [stop] joins the thread within
   the same bound. *)
let scrape_read_timeout_s = 2.0

let metrics_loop t fd =
  while Atomic.get t.running do
    match Unix.accept fd with
    | cfd, _ ->
      (try
         Unix.setsockopt_float cfd Unix.SO_RCVTIMEO scrape_read_timeout_s;
         let path = http_request_path cfd in
         Telemetry.incr "serve.scrapes";
         (* Same flush-before-snapshot contract as the [stats] kind. *)
         Option.iter Access_log.flush t.access;
         let snap = Telemetry.snapshot () in
         if path = "/json" then
           http_respond cfd ~content_type:"application/json"
             (Json.to_string (Telemetry.to_json snap))
         else
           http_respond cfd ~content_type:"text/plain; version=0.0.4"
             (Telemetry.to_prometheus snap)
       with _ -> ());
      (try Unix.close cfd with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ()
    (* stop() closed the listen socket *)
  done

(* --- connection handling -------------------------------------------- *)

(* Out of [conns] first: [stop] shuts down only descriptors it finds
   there, under the same lock, so it never touches a closed one. *)
let close_conn t conn =
  locked t.conns_mutex (fun () -> Hashtbl.remove t.conns conn.fd);
  Telemetry.gauge_add "serve.connections" (-1);
  locked conn.write_mutex (fun () ->
      conn.closed <- true;
      (try flush conn.oc with Sys_error _ | Unix.Unix_error _ -> ());
      try Unix.close conn.fd with Unix.Unix_error _ -> ())

let reader_loop t conn =
  let rec loop () =
    match input_line conn.ic with
    | line ->
      handle_line t conn line;
      loop ()
    | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> ()
  in
  loop ();
  close_conn t conn

let accept_loop t =
  while Atomic.get t.running do
    match Unix.accept t.listen_fd with
    | fd, _ ->
      let conn =
        {
          fd;
          ic = Unix.in_channel_of_descr fd;
          oc = Unix.out_channel_of_descr fd;
          write_mutex = Mutex.create ();
          closed = false;
          lost = false;
        }
      in
      locked t.conns_mutex (fun () -> Hashtbl.replace t.conns fd conn);
      Telemetry.gauge_add "serve.connections" 1;
      let th = Thread.create (fun () -> reader_loop t conn) () in
      locked t.readers_mutex (fun () ->
          t.reader_threads <- th :: t.reader_threads)
    | exception Unix.Unix_error _ -> ()
    (* stop() closed the listen socket *)
  done

(* --- lifecycle ------------------------------------------------------ *)

let bind_socket = function
  | Unix_socket path ->
    if Sys.file_exists path then Unix.unlink path;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    fd
  | Tcp (host, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    let inet =
      try Unix.inet_addr_of_string host
      with Failure _ -> (Unix.gethostbyname host).h_addr_list.(0)
    in
    Unix.bind fd (Unix.ADDR_INET (inet, port));
    fd

(* Touch every serve-side series once so a scrape taken before the
   first request already carries them at zero — dashboards and the CI
   required-series check must not depend on traffic having arrived. *)
let preregister config =
  List.iter
    (fun name -> Telemetry.add name 0)
    [
      "serve.requests"; "serve.responses"; "serve.response_bytes";
      "serve.hits.memory"; "serve.hits.disk"; "serve.misses";
      "serve.overloaded"; "serve.batches"; "serve.pings"; "serve.malformed";
      "serve.admin.stats"; "serve.admin.health"; "serve.scrapes";
      "serve.disconnects"; "serve.undelivered";
    ];
  Telemetry.gauge_set "serve.queue_depth" 0;
  Telemetry.gauge_set "serve.inflight" 0;
  Telemetry.gauge_set "serve.connections" 0;
  Telemetry.gauge_set "serve.pool_domains"
    (match config.domains with Some d -> d | None -> Pool.num_domains ());
  List.iter
    (fun name -> ignore (Telemetry.window name))
    [ "serve.request"; "serve.queue_wait"; "serve.exec" ]

let start config =
  (* A write to a peer that has hung up must fail with EPIPE, which
     [write_line] counts, instead of ending the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let disk =
    match config.cache_dir with
    | None -> Ok None
    | Some dir ->
      Result.map Option.some
        (Diskcache.open_dir ~max_entries:config.cache_entries dir)
  in
  let access =
    match config.access_log with
    | None -> Ok None
    | Some (path, max_bytes) ->
      Result.map Option.some (Access_log.open_log ~max_bytes path)
  in
  match (disk, access) with
  | Error e, _ -> Error ("serve: cache dir: " ^ e)
  | _, Error e -> Error ("serve: access log: " ^ e)
  | Ok disk, Ok access -> (
    match bind_socket config.addr with
    | exception Unix.Unix_error (err, _, _) ->
      Error ("serve: bind: " ^ Unix.error_message err)
    | listen_fd -> (
      let metrics_fd =
        match config.metrics with
        | None -> Ok None
        | Some addr -> (
          match bind_socket addr with
          | fd -> Ok (Some fd)
          | exception Unix.Unix_error (err, _, _) ->
            Error ("serve: metrics bind: " ^ Unix.error_message err))
      in
      match metrics_fd with
      | Error e ->
        (try Unix.close listen_fd with Unix.Unix_error _ -> ());
        Error e
      | Ok metrics_fd ->
        Unix.listen listen_fd 64;
        Option.iter (fun fd -> Unix.listen fd 16) metrics_fd;
        preregister config;
        let t =
          {
            config;
            service = Service.create ();
            listen_fd;
            bound = Unix.getsockname listen_fd;
            disk;
            (* Bounded like the disk tier and cleared whole (it refills
               from disk at memory-hit speed); its lookups are counted
               as [serve.hits.*] and [serve.misses] by the caller. *)
            mem =
              Memo.create ~name:"serve.memory" ~lookups:false ~gauge:true
                ~max_entries:config.cache_entries ();
            queue = Queue.create ();
            queue_mutex = Mutex.create ();
            queue_cond = Condition.create ();
            running = Atomic.make true;
            conns = Hashtbl.create 16;
            conns_mutex = Mutex.create ();
            access;
            metrics_fd;
            metrics_bound = Option.map Unix.getsockname metrics_fd;
            accept_thread = None;
            scheduler_thread = None;
            metrics_thread = None;
            reader_threads = [];
            readers_mutex = Mutex.create ();
            stopped = false;
          }
        in
        t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
        t.scheduler_thread <- Some (Thread.create (fun () -> scheduler_loop t) ());
        t.metrics_thread <-
          Option.map
            (fun fd -> Thread.create (fun () -> metrics_loop t fd) ())
            t.metrics_fd;
        Ok t))

let port t =
  match t.bound with Unix.ADDR_INET (_, p) -> Some p | Unix.ADDR_UNIX _ -> None

let metrics_port t =
  match t.metrics_bound with
  | Some (Unix.ADDR_INET (_, p)) -> Some p
  | _ -> None

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.running false;
    (* Wake the scheduler; it drains whatever is still queued (every
       accepted job gets its response) and then exits. *)
    locked t.queue_mutex (fun () -> Condition.broadcast t.queue_cond);
    Option.iter Thread.join t.scheduler_thread;
    (* Unblock accept(): closing the fd does not wake a thread already
       blocked in accept(2) on Linux, shutdown() does (EINVAL). *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.accept_thread;
    Option.iter
      (fun fd ->
        (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ())
      t.metrics_fd;
    Option.iter Thread.join t.metrics_thread;
    locked t.conns_mutex (fun () ->
        Hashtbl.iter
          (fun fd _ -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
          t.conns);
    let readers = locked t.readers_mutex (fun () -> t.reader_threads) in
    List.iter Thread.join readers;
    Option.iter Access_log.close t.access;
    (match t.config.addr with
    | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Tcp _ -> ());
    match t.config.metrics with
    | Some (Unix_socket path) -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
    | _ -> ()
  end
