"""The host core: the RFC 4271 machine PyFRR and PyBIRD share.

:class:`HostDaemon` implements sessions, the receive path, import,
decision, export and bulk flush once; :mod:`repro.frr` and
:mod:`repro.bird` subclass it with their own attribute representation,
ROA store and xBGP glue.  :data:`repro.host.registry.HOSTS` maps each
implementation name to its daemon class.
"""

from .daemon import NATIVE_ENCODABLE, HostDaemon

__all__ = ["HostDaemon", "NATIVE_ENCODABLE"]
