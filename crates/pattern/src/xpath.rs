//! The `XPath{/,//,*,[]}` dialect (with `and` / `or` predicates) used
//! by updates and views. Mirrors the fragment of the XPathMark
//! benchmark exercised in the paper's Appendix A.

pub mod ast;
pub mod eval;
pub mod parser;

pub use ast::{LocationPath, XNodeTest, XPred, XStep};
pub use eval::{eval_path, eval_path_counted};
pub use parser::{parse_xpath, XPathParseError};
