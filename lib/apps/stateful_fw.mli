(** Stateful firewall on the per-flow EFSM extern (OPP's flagship
    example): SYN opens a session, the handshake-completing ACK
    establishes it, data sustains it, FIN or RST closes it.
    Out-of-order packets — data before SYN, anything after close —
    match no transition and are dropped, which also exercises the
    extern's guard-miss accounting. Session contexts idle past
    [timeout] are evicted by a sweep riding the switch's timer events,
    so eviction is supervised and shed-safe.

    Guards are driven by the {e parsed TCP header}: {!input_of}
    classifies each packet's real SYN/ACK/FIN/RST flag bits into one
    of five input words (data 0, SYN 1, FIN 2, RST 3, non-TCP 4). Packets without a TCP header classify as
    {!input_non_tcp}, which matches no transition — the [meta.mark]
    side channel plays no role, so a mark-spoofed packet cannot fake
    an established session. *)

val input_data : int
(** 0 — a TCP segment with none of SYN/FIN/RST set (ACK, PSH,
    payload). *)

val input_syn : int  (** 1 — SYN set (and not RST). *)

val input_non_tcp : int
(** 4 — no TCP header; matches no transition, always blocked. *)

val s_syn : int
val s_est : int
val s_closed : int

type t

val efsm : t -> Pisa.Efsm.t
(** The underlying extern (counters, state lookups). Only valid after
    the program has been installed on a switch. *)

val allowed : t -> int
(** Packets forwarded (a transition fired). *)

val blocked : t -> int
(** Packets dropped (no transition matched). *)

val key_of : Netcore.Packet.t -> int
(** The flow key the firewall tracks sessions by. *)

val input_of : Netcore.Packet.t -> int
(** Classify a packet's parsed TCP flags (RST > SYN > FIN priority)
    into the EFSM input word; {!input_non_tcp} without a TCP header. *)

val program :
  ?slots:int ->
  ?timeout:Eventsim.Sim_time.t ->
  out_port:(Netcore.Packet.t -> int) ->
  unit ->
  Evcore.Program.spec * t
(** [slots] bounds tracked sessions (LRU eviction beyond it; default
    1024). [timeout] (default 500 µs) is the idle eviction threshold
    and must be positive; idle sessions are swept every [timeout]. *)
