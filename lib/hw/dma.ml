open Engine

let transfer ~pci ~membus bytes =
  if bytes < 0 then invalid_arg "Dma.transfer: negative size"
  else if bytes = 0 then ()
  else begin
    let start = Sim.now (Bus.sim pci) in
    let mem_done = Ivar.create () in
    Process.fork (fun () ->
        Bus.transfer membus bytes;
        Ivar.fill mem_done ());
    Bus.transfer pci bytes;
    Ivar.read mem_done;
    let finish = Sim.now (Bus.sim pci) in
    if finish > start && !Probe.on then
      Probe.emit
        (Probe.Span
           { host = Bus.name pci; track = Probe.Dma; stage = Probe.Stage.Dma;
             start; finish })
  end
