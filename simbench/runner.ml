(** Closed-loop runner: a fixed number of simulated threads, each sending
    its next app op only when the previous one returned, on the
    virtual-time engine.  An app op may take several engine steps (so
    other threads' steps interleave with it, and races between them
    surface as the errnos the workload expects); its modeled latency
    runs from the call to its return and includes every lock wait. *)

open Simurgh_sim

type outcome =
  | Completed
  | Expected_errno  (** completed through an errno the workload predicts *)
  | Failed of string  (** unexpected errno or a result the shadow refutes *)

type step = Continue | Done of outcome

type result = {
  attempted : int;
  failed : int;
  expected : int;  (** app ops that met at least one expected errno *)
  failures : string list;  (** the first few failure messages *)
  lat : float array;  (** modeled app-op latencies, cycles, completion order *)
  makespan : float;  (** cycles *)
  thread_cycles : float;  (** sum of the threads' final clocks *)
  host_cpu_s : float;  (** host CPU time of the run *)
  host_ns : float;  (** host monotonic time of the run *)
}

(** An input stream of [seed] for stream number [i].  [Rng.split] gives
    streams that are shifted copies of one sequence (stream [i + 1] is
    stream [i] one draw later), so simulated threads seeded with it would
    replay each other's inputs; starting each stream at a scrambled state
    makes them independent. *)
let stream seed i =
  Rng.create (Rng.next_int64 (Rng.split (Rng.create seed) i))

(** Raised by a workload step to cut the run short right there (the
    durability replay's skipped-fsync control). *)
exception Stop

(** Run [ops] app ops spread evenly over [threads] simulated threads
    (stopping early once [limit] app ops completed).  [step ctx] runs
    one engine step of the calling thread's current app op. *)
let run ?limit ~machine ~threads ~ops ~seed ~tracer step =
  let ths = Array.init threads (fun i -> Sthread.create ~seed i) in
  Array.iteri
    (fun i thr -> thr.Sthread.rng.Rng.state <- (stream seed i).Rng.state)
    ths;
  let per_thread = ops / threads in
  let limit = match limit with Some l -> l | None -> per_thread * threads in
  let in_op = Array.make threads false in
  let t0 = Array.make threads 0.0 in
  let done_ = Array.make threads 0 in
  let total = ref 0 in
  let lat = Array.make (per_thread * threads) 0.0 in
  let failed = ref 0 and expected = ref 0 and failures = ref [] in
  let eng_step thr =
    let i = thr.Sthread.tid in
    if done_.(i) >= per_thread || (!total >= limit && not in_op.(i)) then false
    else begin
      let ctx = Machine.ctx machine thr in
      if not in_op.(i) then begin
        in_op.(i) <- true;
        t0.(i) <- thr.Sthread.now;
        Tracer.app_begin tracer ctx
      end;
      (match Tracer.app_step tracer ctx (fun () -> step ctx) with
      | Continue -> ()
      | Done o ->
          in_op.(i) <- false;
          Tracer.app_end tracer ctx;
          lat.(!total) <- thr.Sthread.now -. t0.(i);
          incr total;
          done_.(i) <- done_.(i) + 1;
          thr.Sthread.ops <- thr.Sthread.ops + 1;
          (match o with
          | Completed -> ()
          | Expected_errno -> incr expected
          | Failed msg ->
              incr failed;
              if List.length !failures < 5 then failures := msg :: !failures));
      true
    end
  in
  let c0 = Sys.time () and h0 = Tracer.host_ns () in
  let outcome = Engine.run ths eng_step in
  let host_cpu_s = Sys.time () -. c0 and host_ns = Tracer.host_ns () -. h0 in
  {
    attempted = !total;
    failed = !failed;
    expected = !expected;
    failures = List.rev !failures;
    lat = Array.sub lat 0 !total;
    makespan = outcome.Engine.makespan_cycles;
    thread_cycles =
      Array.fold_left (fun acc t -> acc +. t.Sthread.now) 0.0 ths;
    host_cpu_s;
    host_ns;
  }

(** Classify an exception raised by an FS call: [expected] lists the
    errnos the shadow predicted for this call. *)
let errno_outcome ~expected what = function
  | Simurgh_fs_common.Errno.Err (e, _) when List.mem e expected ->
      Expected_errno
  | Simurgh_fs_common.Errno.Err (e, msg) ->
      Failed
        (Printf.sprintf "%s: unexpected %s (%s)" what
           (Simurgh_fs_common.Errno.to_string e)
           msg)
  | e -> raise e
