(** Span recorder for the traced run.

    Every probe records one span: a layer, a name, the request (app op)
    it belongs to, its parent span, and its extent on both clocks — the
    modeled clock (the simulated thread's virtual cycles) and the host
    clock (monotonic nanoseconds of the simulator process).  Spans nest
    app op -> [Db] call -> [Fs] call; a span's self time is its duration
    minus the time its children cover.

    An app op may run as several engine steps (a varmail flowlet, a
    rename round-trip), interleaved with other threads' steps, so the
    host duration of a span is accumulated over the steps it was open
    for rather than taken as end minus start.

    Recording charges no virtual time: a traced and an untraced run
    produce bit-identical modeled results.  With [on = false] every
    probe is one branch. *)

open Simurgh_sim

type layer = App | Kvstore | Fs

let layer_name = function App -> "app" | Kvstore -> "kvstore" | Fs -> "fs"

type span = {
  layer : layer;
  name : string;
  req : int;
  parent : int;  (** index of the parent span, -1 for an app op *)
  tid : int;
  m0 : float;  (** modeled start, cycles *)
  mutable m1 : float;  (** modeled end, cycles *)
  mutable h_ns : float;  (** host duration, ns *)
  mutable child_m : float;  (** modeled time covered by children *)
  mutable child_h : float;  (** host time covered by children *)
}

type t = {
  on : bool;
  mutable spans : span array;
  mutable n : int;
  stacks : int list array;  (** per simulated thread: open span indices *)
  reqs : int array;  (** per simulated thread: current request id *)
  mutable next_req : int;
}

let dummy =
  {
    layer = App;
    name = "";
    req = 0;
    parent = -1;
    tid = 0;
    m0 = 0.0;
    m1 = 0.0;
    h_ns = 0.0;
    child_m = 0.0;
    child_h = 0.0;
  }

(** A recording tracer for [threads] simulated threads. *)
let create ~threads =
  {
    on = true;
    spans = Array.make 1024 dummy;
    n = 0;
    stacks = Array.make threads [];
    reqs = Array.make threads 0;
    next_req = 0;
  }

(** An untraced tracer: every probe is a pass-through. *)
let off () = { (create ~threads:1) with on = false }

let host_ns () = Int64.to_float (Monotonic_clock.now ())

let push t s =
  if t.n = Array.length t.spans then begin
    let a = Array.make (2 * t.n) dummy in
    Array.blit t.spans 0 a 0 t.n;
    t.spans <- a
  end;
  t.spans.(t.n) <- s;
  t.n <- t.n + 1;
  t.n - 1

let open_span t (ctx : Machine.ctx) layer name =
  let tid = ctx.Machine.thr.Sthread.tid in
  let parent = match t.stacks.(tid) with p :: _ -> p | [] -> -1 in
  let i =
    push t
      {
        layer;
        name;
        req = t.reqs.(tid);
        parent;
        tid;
        m0 = Machine.now ctx;
        m1 = 0.0;
        h_ns = 0.0;
        child_m = 0.0;
        child_h = 0.0;
      }
  in
  t.stacks.(tid) <- i :: t.stacks.(tid);
  i

let close_span t (ctx : Machine.ctx) i =
  let tid = ctx.Machine.thr.Sthread.tid in
  let s = t.spans.(i) in
  s.m1 <- Machine.now ctx;
  (match t.stacks.(tid) with _ :: rest -> t.stacks.(tid) <- rest | [] -> ());
  if s.parent >= 0 then begin
    let p = t.spans.(s.parent) in
    p.child_m <- p.child_m +. (s.m1 -. s.m0);
    p.child_h <- p.child_h +. s.h_ns
  end

(** Run [f] inside a span of [layer]/[name] (a single engine step). *)
let span t ?ctx layer name f =
  match ctx with
  | Some ctx when t.on -> (
      let i = open_span t ctx layer name in
      let h0 = host_ns () in
      let finish () =
        let s = t.spans.(i) in
        s.h_ns <- host_ns () -. h0;
        close_span t ctx i
      in
      match f () with
      | r ->
          finish ();
          r
      | exception e ->
          finish ();
          raise e)
  | _ -> f ()

(** App ops: [app_begin] opens the op's span and gives it a fresh
    request id, [app_step] runs one engine step of it (accumulating the
    step's host time), [app_end] closes it. *)
let app_begin t (ctx : Machine.ctx) =
  if t.on then begin
    let tid = ctx.Machine.thr.Sthread.tid in
    t.reqs.(tid) <- t.next_req;
    t.next_req <- t.next_req + 1;
    ignore (open_span t ctx App "app")
  end

let app_step t (ctx : Machine.ctx) f =
  if not t.on then f ()
  else begin
    let tid = ctx.Machine.thr.Sthread.tid in
    let h0 = host_ns () in
    let r = f () in
    (match t.stacks.(tid) with
    | i :: _ ->
        let s = t.spans.(i) in
        s.h_ns <- s.h_ns +. (host_ns () -. h0)
    | [] -> ());
    r
  end

let app_end t (ctx : Machine.ctx) =
  if t.on then
    match t.stacks.(ctx.Machine.thr.Sthread.tid) with
    | i :: _ -> close_span t ctx i
    | [] -> ()

let iter t f =
  for i = 0 to t.n - 1 do
    f i t.spans.(i)
  done

(** Write every span as one tab-separated line: index, parent, request,
    thread, layer, name, modeled start/end (cycles), host ns. *)
let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "idx\tparent\treq\ttid\tlayer\tname\tm0\tm1\thost_ns\n";
      iter t (fun i s ->
          Printf.fprintf oc "%d\t%d\t%d\t%d\t%s\t%s\t%.0f\t%.0f\t%.0f\n" i
            s.parent s.req s.tid (layer_name s.layer) s.name s.m0 s.m1 s.h_ns))
