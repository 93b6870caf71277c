"""xBGP reproduction: programmable BGP via eBPF extension code.

Reproduction of *xBGP: When You Can't Wait for the IETF and Vendors*
(Wirtgen, De Coninck, Bush, Vanbever, Bonaventure - HotNets 2020) as a
pure-Python system:

* :mod:`repro.core` - libxbgp: the vendor-neutral API, insertion
  points and the Virtual Machine Manager;
* :mod:`repro.ebpf` - a userspace eBPF VM (ISA, assembler, verifier,
  interpreter, JIT translator);
* :mod:`repro.xc` - a C-subset compiler producing the plugin bytecode;
* :mod:`repro.frr` / :mod:`repro.bird` - two xBGP-compliant BGP
  daemons with deliberately different internals (FRRouting-like and
  BIRD-like);
* :mod:`repro.host` - the RFC 4271 daemon core both hosts subclass;
* :mod:`repro.bgp` - the shared RFC 4271 substrate (wire format, RIBs,
  decision process, FSM, ROAs);
* :mod:`repro.plugins` - the paper's five use cases as xBGP programs;
* :mod:`repro.sim` / :mod:`repro.net` - discrete-event simulation and
  live asyncio transport;
* :mod:`repro.workload` / :mod:`repro.mrt` - synthetic RIS-like tables
  and the MRT archive format;
* :mod:`repro.eval` - the experiment drivers for every paper figure.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
