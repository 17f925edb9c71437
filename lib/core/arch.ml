module Event = Devents.Event

type t = {
  name : string;
  events : Event.cls list;
  has_timers : bool;
  has_packet_generator : bool;
  has_recirculation : bool;
}

let baseline_psa =
  {
    name = "baseline-psa";
    events = [ Event.Ingress_packet; Event.Egress_packet; Event.Recirculated_packet ];
    has_timers = false;
    has_packet_generator = false;
    has_recirculation = true;
  }

let sume_event_switch =
  {
    name = "sume-event-switch";
    events =
      [
        Event.Ingress_packet;
        Event.Generated_packet;
        Event.Buffer_enqueue;
        Event.Buffer_dequeue;
        Event.Buffer_overflow;
        Event.Timer_expiration;
        Event.Link_status_change;
      ];
    has_timers = true;
    has_packet_generator = true;
    has_recirculation = false;
  }

let event_pisa_full =
  {
    name = "event-pisa";
    events = Event.all_classes;
    has_timers = true;
    has_packet_generator = true;
    has_recirculation = true;
  }

let tofino_like =
  {
    name = "tofino-like";
    events =
      [
        Event.Ingress_packet;
        Event.Egress_packet;
        Event.Recirculated_packet;
        Event.Generated_packet;
      ];
    has_timers = false;
    has_packet_generator = true;
    has_recirculation = true;
  }

let supports t cls = List.exists (Event.cls_equal cls) t.events
