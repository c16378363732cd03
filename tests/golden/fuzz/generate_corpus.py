#!/usr/bin/env python3
"""Regenerates the shared malformed-input corpus.

The corpus is the fixture set for request_json_test's corpus-driven
tests: every file in bad_json/ must be rejected by BOTH the RFC 8259
validator (engine::validate_json) and the request parser; bad_request/
holds grammar-valid JSON the request schema rejects; good_json/ must
validate; good_request/ must survive both parsers. bad_job/ holds
requests the schema accepts but the job refuses with an error line
(covest_batch_cli_test), and the generated bad_model/ files join the
hand-written ones there (model_test). Run this script from the repo
root after changing a parser's limits (e.g. a nesting depth) and
commit the result.
"""
import json
import os

base = os.path.dirname(os.path.abspath(__file__))
for d in ('bad_json', 'bad_request', 'good_json', 'good_request', 'bad_job',
          'bad_model'):
    os.makedirs(os.path.join(base, d), exist_ok=True)


def w(rel, data):
    mode = 'wb' if isinstance(data, bytes) else 'w'
    with open(os.path.join(base, rel), mode) as f:
        f.write(data)


# ---- bad_json: rejected by the RFC 8259 parser itself (and therefore
# by both the request parser and validate_json). ----
w('bad_json/empty.json', '')
w('bad_json/not_json.json', 'not json')
w('bad_json/truncated_object.json', '{')
w('bad_json/truncated_string.json', '{"model_path": "m.co')
w('bad_json/trailing_comma.json', '{"model_path": "m.cov",}')
w('bad_json/trailing_content.json', '{"model_path": "m.cov"} trailing')
w('bad_json/leading_zero.json', '[01]')
w('bad_json/plus_sign_number.json', '[+1]')
w('bad_json/hex_number.json', '[0x10]')
w('bad_json/bad_escape.json', r'{"model_path": "\x"}')
w('bad_json/unescaped_control.json', b'{"model_path": "a\x01b"}')
# NaN / Infinity spellings: valid in no RFC 8259 production.
w('bad_json/nan.json', '{"uncovered_limit": NaN}')
w('bad_json/nan_lowercase.json', '[nan]')
w('bad_json/infinity.json', '[Infinity]')
w('bad_json/neg_infinity.json', '[-Infinity]')
w('bad_json/inf_short.json', '[inf]')
# Lone surrogate escapes.
w('bad_json/lone_high_surrogate.json', r'{"model_path": "\ud83d"}')
w('bad_json/lone_low_surrogate.json', r'{"model_path": "\udca5"}')
w('bad_json/surrogate_pair_backwards.json', r'{"model_path": "\udca5\ud83d"}')
# Truncated / invalid raw UTF-8 byte sequences (RFC 8259 section 8.1).
w('bad_json/utf8_truncated_2byte.json', b'{"model_path": "x\xc3"}')
w('bad_json/utf8_truncated_3byte.json', b'{"model_path": "x\xe2\x82"}')
w('bad_json/utf8_truncated_4byte.json', b'{"model_path": "x\xf0\x9f\x92"}')
w('bad_json/utf8_bare_continuation.json', b'{"model_path": "\x80"}')
w('bad_json/utf8_overlong_slash.json', b'{"model_path": "\xc0\xaf"}')
w('bad_json/utf8_overlong_nul.json', b'{"model_path": "\xc0\x80"}')
w('bad_json/utf8_raw_surrogate.json', b'{"model_path": "\xed\xa0\x80"}')
w('bad_json/utf8_beyond_u10ffff.json', b'{"model_path": "\xf4\x90\x80\x80"}')
w('bad_json/utf8_invalid_lead_f5.json', b'{"model_path": "\xf5\x80\x80\x80"}')
# Nesting one past the parser's depth limit: kMaxDepth = 256, and the
# innermost scalar occupies a level, so 256 arrays + the scalar = 257.
w('bad_json/nesting_limit_plus_1.json', '[' * 256 + '1' + ']' * 256)

# ---- bad_request: grammar-valid JSON the request schema rejects. ----
w('bad_request/not_an_object_array.json', '[]')
w('bad_request/not_an_object_string.json', '"model_path"')
w('bad_request/null_model_path.json', '{"model_path": null}')
w('bad_request/wrong_type_path.json', '{"model_path": 7}')
w('bad_request/wrong_type_model.json', '{"model": false}')
w('bad_request/wrong_type_signals.json', '{"signals": "g0"}')
w('bad_request/wrong_element_type_signals.json', '{"signals": [1]}')
w('bad_request/wrong_type_properties.json', '{"properties": {}}')
w('bad_request/properties_not_objects.json', '{"properties": ["AG x"]}')
w('bad_request/property_missing_ctl.json', '{"properties": [{"observe": []}]}')
w('bad_request/property_unknown_key.json',
  '{"properties": [{"ctl": "AG x", "extra": 1}]}')
w('bad_request/wrong_type_options.json', '{"options": []}')
w('bad_request/options_unknown_key.json', '{"options": {"fairness": true}}')
w('bad_request/wrong_type_skip_failing.json', '{"skip_failing": "yes"}')
w('bad_request/uncovered_negative.json', '{"uncovered_limit": -1}')
w('bad_request/uncovered_fractional.json', '{"uncovered_limit": 1.5}')
w('bad_request/uncovered_bool.json', '{"uncovered_limit": true}')
w('bad_request/uncovered_saturated.json', '{"uncovered_limit": 1e999}')
w('bad_request/unknown_top_level_key.json', '{"modle_path": "m.cov"}')
# Resource-governance counts: both must be >= 1 integers when present
# (0 is spelled by omission), and the shared count grammar already
# rejects negatives, fractions, booleans and magnitudes past 1e15.
w('bad_request/deadline_zero.json', '{"deadline_ms": 0}')
w('bad_request/deadline_negative.json', '{"deadline_ms": -5}')
w('bad_request/deadline_fractional.json', '{"deadline_ms": 1.5}')
w('bad_request/deadline_overflow.json', '{"deadline_ms": 1e16}')
w('bad_request/deadline_wrong_type.json', '{"deadline_ms": "soon"}')
w('bad_request/max_nodes_zero.json', '{"max_live_nodes": 0}')
w('bad_request/max_nodes_fractional.json', '{"max_live_nodes": 2.5}')
w('bad_request/max_nodes_wrong_type.json', '{"max_live_nodes": true}')
# Retired fields are unknown keys: there is no in-operation
# parallelism, no shared BDD table, no intra-suite sharding and no
# per-request image strategy.
w('bad_request/parallel_apply_removed.json',
  '{"model_path": "m.cov", "parallel_apply": 2}')
w('bad_request/table_mode_removed.json',
  '{"model_path": "m.cov", "table_mode": "striped"}')
w('bad_request/shard_mode_removed.json',
  '{"model_path": "m.cov", "shard_mode": "shared_manager"}')
w('bad_request/shards_removed.json', '{"model_path": "m.cov", "shards": 2}')
w('bad_request/image_strategy_removed.json',
  '{"model_path": "m.cov", "image_strategy": "chaining"}')
# Duplicate keys (grammar-valid; the schema rejects two-jobs-at-once),
# including duplicates buried in nested objects.
w('bad_request/duplicate_top_level.json',
  '{"model_path": "a.cov", "model_path": "b.cov"}')
w('bad_request/duplicate_top_level_properties.json',
  '{"properties": [], "properties": [{"ctl": "AG (x)"}]}')
w('bad_request/duplicate_nested_options.json',
  '{"options": {"restrict_to_fair": true, "restrict_to_fair": false}}')
w('bad_request/duplicate_nested_property_ctl.json',
  '{"properties": [{"ctl": "AG (x)", "ctl": "AG (y)"}]}')
w('bad_request/duplicate_nested_property_observe.json',
  '{"properties": [{"ctl": "AG (x)", "observe": [], "observe": ["x"]}]}')

# ---- good_json: must validate as JSON (request-schema validity is a
# separate question; some of these are deliberately not requests). ----
# Exactly at the limit: 255 arrays + the innermost scalar = depth 256.
w('good_json/nesting_at_limit_arrays.json', '[' * 255 + '1' + ']' * 255)
w('good_json/nesting_below_limit_objects.json',
  '{"a": ' * 255 + '1' + '}' * 255)
w('good_json/surrogate_pair_escapes.json', '["\\ud83d\\udca5"]')
w('good_json/huge_numbers.json', '[1e999, -1e999, 1e-999, -1e-999]')
w('good_json/utf8_multibyte.json',
  '["café", "€", "\U0001f4a5"]'.encode('utf-8'))
w('good_json/escapes.json', r'["\"\\\/\b\f\n\r\t "]')

# ---- good_request: must survive both parsers. ----
w('good_request/minimal.json', '{"model_path": "m.cov"}')
w('good_request/utf8_path.json',
  '{"model_path": "mödel\U0001f44d.cov"}'.encode('utf-8'))
w('good_request/deadline_and_budget.json',
  '{"model_path": "m.cov", "deadline_ms": 500, "max_live_nodes": 100000}')

# ---- Syntax-depth reproductions: each used to overflow the stack
# (SIGSEGV) in a parser or in a recursive pass over the tree it built.
# The parsers now stop at kMaxSyntaxDepth = 256 levels (src/expr/lexer.h)
# with a located syntax error; 100,000 levels is far past it. ----
DEEP = 100000
MODEL = 'MODULE deep;\nVAR x : bool;\nNEXT x := !x;\n'
# bad_model: the NEXT right-hand side as prefix operators, as nested
# parentheses, and as a flat left-deep chain.
w('bad_model/deep_negation_next.cov',
  'MODULE deep;\nVAR x : bool;\nNEXT x := ' + '!' * DEEP + 'x;\n')
w('bad_model/deep_parentheses_next.cov',
  'MODULE deep;\nVAR x : bool;\nNEXT x := ' + '(' * DEEP + 'x' + ')' * DEEP
  + ';\n')
w('bad_model/long_xor_chain_next.cov',
  'MODULE deep;\nVAR x : bool;\nNEXT x := ' + '^'.join(['x'] * DEEP) + ';\n')


def job(ctl):
    return json.dumps({'model': MODEL, 'properties': [{'ctl': ctl}]},
                      separators=(',', ':')) + '\n'


# bad_job: one NDJSON request line each, a property past the bound.
w('bad_job/deep_negation_ctl.json', job('!' * DEEP + 'true'))
w('bad_job/long_and_chain_ctl.json', job('&'.join(['x'] * DEEP)))

for d in ('bad_json', 'bad_request', 'good_json', 'good_request', 'bad_job'):
    print(d, len(os.listdir(os.path.join(base, d))))
