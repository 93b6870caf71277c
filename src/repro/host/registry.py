"""Implementation name -> host daemon class.

Kept apart from :mod:`repro.host.daemon` because the host modules
import the core: the registry can only be built once both exist.
"""

from ..bird.daemon import BirdDaemon
from ..frr.daemon import FrrDaemon

__all__ = ["HOSTS"]

HOSTS = {"frr": FrrDaemon, "bird": BirdDaemon}
