(** The interface every benchmark workload implements. *)

module Region = Simurgh_nvmm.Region

type inst = {
  cfg : Fsconfig.t;
  step : Simurgh_sim.Machine.ctx -> Runner.step;
      (** one engine step of the calling thread's current app op *)
  user_bytes : unit -> int;  (** payload bytes the app has written *)
  layer_metrics : unit -> (string * float) list;
      (** metrics of layers above [Fs] (the LSM store), for the traced run *)
  durable : unit -> Simurgh_core.Fs.t -> int * int;
      (** called before the crash; the closure it returns checks a mount
          of the recovered image and gives (acked writes, lost writes) *)
  corrupt : unit -> unit;  (** negative control: falsify the shadow *)
  skip_fsync : int ref;
      (** negative control: the n-th acked append (1-based) skips its
          persist barrier and stops the run; 0 = off *)
}

type spec = {
  name : string;
  threads : int;
  ops : int;  (** app ops in the measured phase *)
  replay_ops : int;  (** app ops replayed for the durability check *)
  region_mb : int;  (** size of the simulated NVMM device *)
  setup : region:Region.t -> seed:int64 -> tracer:Tracer.t -> inst;
      (** format, mount and populate or load *)
}
