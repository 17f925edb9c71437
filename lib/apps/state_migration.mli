(** Data-plane state migration (Table 2, Network Management; after
    swing-state, Luo et al., SOSR'17).

    An active switch keeps per-flow state (packet counters here). When
    its primary link fails, traffic swings to a standby switch — and
    the state must swing with it, or the standby restarts every flow
    from zero.

    - [Event_driven]: the link-status-change event triggers the
      migration entirely in the data plane: the packet generator emits
      one state-chunk packet per register slot over the backup path;
      the standby's ingress installs each chunk. Migration completes
      in (slots x generator period) with no control-plane involvement.
    - [Cp_driven]: the control plane reads the active switch's
      registers and writes them into the standby, paying channel
      latency and the op-rate limit per batch.

    The standby keeps counting arriving packets while chunks install;
    installing a chunk {e adds} the migrated base to the live count,
    so no packets are lost from the state if data and chunks
    interleave. *)

type Netcore.Packet.payload += State_chunk of { slot : int; value : int }

type mode =
  | Event_driven of { chunk_period : Eventsim.Sim_time.t }
  | Cp_driven of {
      cp : Evcore.Control_plane.t;
      batch : int;  (** register slots read+written per CP op *)
    }

type t

val migration_completed_at : t -> int option
val chunks_installed : t -> int
val counter : t -> role:[ `Active | `Standby ] -> slot:int -> int
val state_bits : t -> int

val active_program :
  t -> mode:mode -> primary:int -> backup:int -> Evcore.Program.spec
(** Counts packets per flow slot; forwards via [primary] until it
    fails, then via [backup]; migrates its counters on the failure. *)

val standby_program : t -> out_port:int -> Evcore.Program.spec
(** Continues counting and forwarding to [out_port]; installs
    arriving state chunks. *)

val create : ?slots:int -> unit -> t
val flow_slot : t -> Netcore.Packet.t -> int
