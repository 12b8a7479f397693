"""Mass-conserving phase-separation dynamics on finite weighted graphs.

Each public name is declared once, where it is defined: in its module's
``__all__``, or as an exception class in :mod:`graphphase.errors`.
"""

from .errors import *
from .graph_core import *
from .io_cli import *
from .multiclass import *
from .oracles import *
from .trajectory import *
from .scheme import *

__version__ = "0.1.0"
