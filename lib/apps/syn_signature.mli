(** DDoS SYN-signature detector as a compiled CEP pattern:
    [within window (count syns SYN)] correlated by destination address
    — [syns] connection-opening SYNs (SYN set, ACK/RST clear, parsed
    from the real TCP header) aimed at one victim inside [window]
    raise an alarm for that victim. The countdown window expires
    automata that stall below the threshold, so slow organic connection
    setup does not accumulate into a false alarm. *)

val program :
  ?slots:int ->
  ?timeout:Eventsim.Sim_time.t ->
  ?syns:int ->
  ?window:Eventsim.Sim_time.t ->
  ?tick_period:Eventsim.Sim_time.t ->
  ?on_match:(key:int -> time:int -> unit) ->
  out_port:(Netcore.Packet.t -> int) ->
  unit ->
  Evcore.Program.spec
(** Defaults: 16 SYNs inside 100 µs, 10 µs detector tick. [timeout]
    arms idle instance GC (off by default); [on_match] fires per alarm
    with the victim address as [key]. *)

val pattern : syns:int -> window:Eventsim.Sim_time.t -> Cep.Pattern.t
