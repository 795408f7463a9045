"""Segment dependency-parsed sentences into rhesis: units of meaning.

The pipeline: ingest CoNLL-U parses and gold segmentations (`corpus`),
declare how long a unit may be (`span`), segment by rule cascade
(`cascade`) or by scored dependency cuts (`scoring`) with weights tuned
evolutionarily (`evolve`), score results (`evaluate`), exchange data with
an external classifier (`dataset`), and render or drive it all from the
command line (`render`, `cli`).
"""

# Each module's __all__ is the package's public API, republished here.
from .cascade import *
from .config import *
from .corpus import *
from .dataset import *
from .errors import *
from .evaluate import *
from .evolve import *  # after the submodule import: the name rhesis.evolve is the function
from .render import *
from .scoring import *
from .span import *

__version__ = "0.1.0"
