"""phononet: thermal-noise filtering, state transfer and non-reciprocal
routing in linear phononic networks with optomechanical control."""

__version__ = "0.1.0"

from .errors import *
from .network import *
from .waveguide import *
from .transfer import *
from .cascade import *
from .circulator import *
from .nv import *
