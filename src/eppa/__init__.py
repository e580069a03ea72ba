"""Coherent extension of partial automorphisms of finite relational
structures, with machine-checkable certificates."""

from .structures import (GRAPH_SIGNATURE, PartialAutomorphism, Permutation,
                         Signature, Structure, automorphism_group,
                         enumerate_partial_automorphisms, gaifman_graph, graph,
                         induced_substructure, is_embedding, is_gaifman_clique,
                         is_homomorphism)
from .coherence import (ExtensionMap, PermutationGroup, SetPartialMap, Verdict,
                        coherent_lift, coherent_triples, verify_coherence,
                        verify_coherent_extension, verify_extension)
from .base_extension import (BaseEppaCertificate, PartGroupoid, base_eppa, coherent_assignment,
                             scaffold_certificate, verify_base_certificate)
from .quotient import (SpecialCertificate, special_extension, verify_special)
from .faithful import (FaithfulCertificate, LargeSetFamily, ValuedPoint,
                       build_valued_extension, clique_faithful_extension,
                       enumerate_cliques, forb_e_eppa, hat_extend, is_generic,
                       large_sets, verify_faithful_view)
from .amalgamation import (AmalgamInstance, check_clique_characterization,
                           exists_embedding, forb_e_member, free_amalgam,
                           minimal_forbidden)
from .chains import ChainCertificate, build_dlf_chain, verify_chain
from .textio import (emit_certificate, emit_structure, parse_certificate,
                     parse_structure, verify_certificate)

__all__ = [name for name in dir() if not name.startswith("_")]
