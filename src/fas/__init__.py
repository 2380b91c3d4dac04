"""Outage-probability analysis and design tools for N-port
position-switching (fluid) antennas over spatially correlated Rayleigh
fading, with a Monte-Carlo oracle validating every analytic expression."""

# set before the submodule imports: the cli and validation modules read it
__version__ = "0.1.0"

from .analytic import (joint_cdf, joint_pdf, outage_approx, outage_exact,
                       outage_mrc, outage_n2_closed_form)
from .bounds import BoundConstants, bound_constants, outage_upper_bound, \
    per_port_bound_factor
from .channel import (DopplerTraceConfig, FasConfig, correlation_profile,
                      envelope_trace, port_displacements)
from .design import (DesignAnswer, DesignQuery, min_ports_for_size,
                     min_ports_general, min_ports_homogeneous, min_size,
                     required_mu_and_size)
from .mc import McEstimate, McSettings, mc_outage_fas
from .specfun import inv_besselj0_envelope, marcum_q1

__all__ = [
    "BoundConstants", "DesignAnswer", "DesignQuery", "DopplerTraceConfig",
    "FasConfig", "McEstimate", "McSettings", "bound_constants",
    "correlation_profile", "envelope_trace", "inv_besselj0_envelope",
    "joint_cdf", "joint_pdf", "marcum_q1", "mc_outage_fas",
    "min_ports_for_size", "min_ports_general", "min_ports_homogeneous",
    "min_size", "outage_approx", "outage_exact", "outage_mrc",
    "outage_n2_closed_form", "outage_upper_bound", "per_port_bound_factor",
    "port_displacements", "required_mu_and_size",
]
