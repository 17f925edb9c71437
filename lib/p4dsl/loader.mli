(** Bind a parsed P4-subset program onto the event-driven architecture:
    [load] turns source text into an {!Evcore.Program.spec} installable
    on any {!Evcore.Event_switch}.

    {2 Control-to-event binding}

    A [control]'s name selects the event class it handles:
    [Ingress], [Recirculated], [Generated], [Egress], [Enqueue],
    [Dequeue], [Overflow], [Underflow], [Transmitted], [Timer],
    [LinkChange], [ControlPlane], [UserEvent]. At least [Ingress] must
    be present.

    {2 Environments}

    Packet controls read [pkt.len], [pkt.ingress_port], [hdr.ip.src],
    [hdr.ip.dst], [hdr.ip.proto], [hdr.udp.sport], [hdr.udp.dport]
    ([pkt.*] works as an alias for [hdr.*]) and may write
    [enq_meta.flowID] / [enq_meta.pkt_len] / [enq_meta.slot2] /
    [enq_meta.slot3] and the same under [deq_meta.*] — the paper's
    metadata initialisation. Effect builtins: [forward(port)],
    [multicast(p1, ..)], [drop()], [recirculate()], [mark(v)],
    [emit_user(tag, data)], [notify("msg")]. If no decision builtin
    runs, the packet is dropped.

    Buffer-event controls read [meta.flowID], [meta.pkt_len],
    [meta.slot2], [meta.slot3] (the metadata the ingress control
    wrote), plus [meta.port], [meta.qid], [meta.occ_bytes],
    [meta.occ_pkts]. Timer controls read [timer.id] and [timer.count]
    (each [timer(period_us) name;] declaration also binds [name] as a
    constant holding the timer's id). Link controls read [link.port]
    and [link.up]; control-plane controls [ctl.opcode] / [ctl.arg];
    user-event controls [user.tag] / [user.data].

    {2 Register semantics}

    [shared_register<bit<W>>(N) r;] allocates a {!Devents.Shared_register}
    in the switch's state mode. In packet controls, [r.read]/[r.write]/
    [r.add] use the packet-thread port. In event controls, [r.read]
    returns the up-to-date value and [r.write(i, v)] aggregates the
    difference into the control's side (Enqueue -> enq side, others ->
    deq side) — exactly how §4 says event-side read-modify-writes are
    realised, so the paper's Enqueue/Dequeue blocks work verbatim.
    Register indexes are truncated modulo the entry count (hardware
    index truncation). [register<...>] declares plain single-thread
    state.

    Value builtins usable in expressions: [max(a,b)], [min(a,b)],
    [now_us()]. *)

exception Load_error of string

val load : ?name:string -> string -> Evcore.Program.spec
(** Parse and bind source text. Lexical errors raise
    {!Lexer.Lex_error}, parse errors {!Parser.Parse_error} and binding
    errors {!Load_error}; handler-time errors raise
    {!Interp.Runtime_error}. *)

val microburst_p4 : string
(** The paper's §2 program, as accepted by this DSL. *)
